"""Immutable sorted-run files for the log archive.

One run holds the log records of a contiguous LSN interval, re-sorted by
(page id, LSN).  Layout (little-endian):

    header : magic "SGAR2" | u64 begin_lsn | u64 end_lsn | u64 record_count
             | u32 block_size
    blocks : records in WAL wire format, packed into fixed-size blocks and
             zero padded (a u32 total_len of 0 ends a block early)
    index  : u64 first_page_id | u64 file_offset, one entry per block
    bloom  : u32 bit_len | filter bytes, over the page ids present
    footer : u64 index_offset | u64 bloom_offset | u32 crc32 of the whole
             file before this field

A run is one self-describing file named archive_<begin>_<end>.run and is
published with failpoints.publish (shadow file plus atomic rename);
anything still carrying the .tmp suffix is garbage to be ignored.  A
RunReader holds no open file, so a merge unlinks a run with nothing to
close.
"""

import os
import struct
import zlib
from bisect import bisect_left, bisect_right

from . import failpoints
from .bloom import BloomFilter
from .errors import ArchiveError, CorruptRunError
from .wal import LogRecord

MAGIC = b"SGAR2"  # SGAR1 runs held the 63-byte records of an older WAL layout
_HEADER = struct.Struct("<5sQQQI")
_INDEX_ENTRY = struct.Struct("<QQ")
_FOOTER = struct.Struct("<QQI")

DEFAULT_BLOCK_SIZE = 4096


def run_name(begin_lsn: int, end_lsn: int) -> str:
    return f"archive_{begin_lsn}_{end_lsn}.run"


def parse_run_name(name: str) -> tuple[int, int] | None:
    if not name.startswith("archive_") or not name.endswith(".run"):
        return None
    parts = name[len("archive_"):-len(".run")].split("_")
    if len(parts) != 2:
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        return None


def write_run(dir_path: str, begin_lsn: int, end_lsn: int, records,
              block_size: int = DEFAULT_BLOCK_SIZE) -> str:
    """Write and atomically publish one run; records must arrive sorted
    by (page_id, lsn) with every lsn inside [begin_lsn, end_lsn).

    Returns the published path.  On error nothing is published.
    """
    path = os.path.join(dir_path, run_name(begin_lsn, end_lsn))
    blocks = bytearray()
    index = []
    pages_seen = set()
    count = 0
    block = bytearray()
    block_first_page = None
    last_key = None

    def seal_block():
        nonlocal block, block_first_page
        index.append((block_first_page, _HEADER.size + len(blocks)))
        block += bytes(block_size - len(block))
        blocks.extend(block)
        block = bytearray()
        block_first_page = None

    for rec in records:
        key = (rec.page_id, rec.lsn)
        if last_key is not None and key < last_key:
            raise ArchiveError(f"records out of order at {key}")
        last_key = key
        if not begin_lsn <= rec.lsn < end_lsn:
            raise ArchiveError(f"lsn {rec.lsn} outside run range [{begin_lsn}, {end_lsn})")
        encoded = rec.encode()
        if len(encoded) + 4 > block_size:
            raise ArchiveError(f"record of {len(encoded)} bytes exceeds block size")
        if block and len(block) + len(encoded) > block_size:
            seal_block()
        if not block:
            block_first_page = rec.page_id
        block += encoded
        pages_seen.add(rec.page_id)
        count += 1
    if block:
        seal_block()

    bloom = BloomFilter.sized_for(len(pages_seen))
    for pid in pages_seen:
        bloom.add(pid)

    index_offset = _HEADER.size + len(blocks)
    bloom_offset = index_offset + len(index) * _INDEX_ENTRY.size
    body = bytearray()
    body += _HEADER.pack(MAGIC, begin_lsn, end_lsn, count, block_size)
    body += blocks
    for first_page, off in index:
        body += _INDEX_ENTRY.pack(first_page, off)
    body += bloom.to_bytes()
    body += _FOOTER.pack(index_offset, bloom_offset, 0)[:-4]
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    failpoints.publish(path, lambda f: f.write(body), "run:pre_rename")
    return path


class RunReader:
    """One published run: header, block index and bloom filter live in
    memory; record blocks are read on demand, each read opening and
    closing the file, so a reader holds no file between reads."""

    def __init__(self, path: str):
        self.path = path
        self.name = os.path.basename(path)
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) < _HEADER.size + _FOOTER.size:
            raise CorruptRunError(self.name, "file too small")
        (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
        if crc != zlib.crc32(raw[:-4]):
            raise CorruptRunError(self.name, "file crc mismatch")
        magic, self.begin_lsn, self.end_lsn, self.record_count, self.block_size = \
            _HEADER.unpack_from(raw)
        if magic != MAGIC:
            raise CorruptRunError(self.name, f"bad magic {magic!r}")
        footer = len(raw) - _FOOTER.size
        self._index_offset, bloom_offset, _ = _FOOTER.unpack_from(raw, footer)
        self.index = list(_INDEX_ENTRY.iter_unpack(raw[self._index_offset:bloom_offset]))
        self._firsts = [first for first, _ in self.index]  # block_span's search keys
        self.bloom = BloomFilter.from_bytes(raw[bloom_offset:footer])

    def _pread(self, offset: int, nbytes: int) -> bytes:
        with open(self.path, "rb", buffering=0) as f:
            data = os.pread(f.fileno(), nbytes, offset)
        if len(data) != nbytes:
            raise CorruptRunError(self.name, "short read")
        return data

    def block_span(self, first_page: int, last_page: int) -> tuple[int, int]:
        """Byte range [start, end) of the blocks that may hold records for
        page ids in [first_page, last_page]; (0, 0) when none can.

        Block k covers sort keys [index[k].first, index[k+1].first), so the
        span starts one block before the first index entry >= first_page:
        that earlier block can still end with low-LSN records of the first
        page."""
        if not self.index:
            return 0, 0
        start_block = max(0, bisect_left(self._firsts, first_page) - 1)
        end_block = bisect_right(self._firsts, last_page)
        if end_block <= start_block:
            return 0, 0
        start = self.index[start_block][1]
        end = self.index[end_block][1] if end_block < len(self.index) else self._index_offset
        return start, end

    def _decode_blocks(self, data: bytes) -> list[LogRecord]:
        records = []
        try:
            for end in range(self.block_size, len(data) + 1, self.block_size):
                off = end - self.block_size
                while off + 4 <= end and struct.unpack_from("<I", data, off)[0]:
                    rec, off = LogRecord.decode(data, off)
                    records.append(rec)
        except Exception as exc:
            raise CorruptRunError(self.name, str(exc)) from exc
        return records

    def scan_range(self, first_page: int, last_page: int, min_lsn: int = 0,
                   device=None, now: float = 0.0) -> tuple[list[LogRecord], float]:
        """Records with page_id in [first_page, last_page] and lsn >= min_lsn,
        in (page_id, lsn) order.  One contiguous device charge."""
        start, end = self.block_span(first_page, last_page)
        if start == end:
            return [], now
        t = device.charge_read(end - start, now) if device is not None else now
        data = self._pread(start, end - start)
        out = [r for r in self._decode_blocks(data)
               if first_page <= r.page_id <= last_page and r.lsn >= min_lsn]
        return out, t

    def scan_all(self, device=None, now: float = 0.0) -> tuple[list[LogRecord], float]:
        nbytes = self._index_offset - _HEADER.size
        if nbytes <= 0:
            return [], now
        t = device.charge_read(nbytes, now) if device is not None else now
        data = self._pread(_HEADER.size, nbytes)
        return self._decode_blocks(data), t
