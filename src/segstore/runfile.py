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
anything still carrying the .tmp suffix is garbage to be ignored.  Runs
stream: write_run writes each block as it fills under a running CRC (the
header goes first, so the caller states the record count), and a
RunReader checks and scans a run READ_CHUNK bytes at a time, holding no
open file between reads, so a merge unlinks a run with nothing to close.
"""

import os
import struct
import zlib
from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from . import failpoints
from .bloom import BloomFilter
from .errors import ArchiveError, CorruptRunError
from .wal import READ_CHUNK, LogRecord

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


def write_run(dir_path: str, begin_lsn: int, end_lsn: int, records, count: int,
              block_size: int = DEFAULT_BLOCK_SIZE) -> str:
    """Write and atomically publish one run of count records, each block as
    it fills; records must arrive sorted by (page_id, lsn) with every lsn
    inside [begin_lsn, end_lsn).

    Returns the published path.  On error, records that number other than
    count included, nothing is published.
    """
    path = os.path.join(dir_path, run_name(begin_lsn, end_lsn))

    def write(f):
        crc = 0

        def put(data):
            nonlocal crc
            f.write(data)
            crc = zlib.crc32(data, crc)

        put(_HEADER.pack(MAGIC, begin_lsn, end_lsn, count, block_size))
        index = []
        pages_seen = set()
        block = bytearray()
        last_key = None
        n = 0
        for n, rec in enumerate(records, 1):
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
                put(block.ljust(block_size, b"\0"))
                block = bytearray()
            if not block:
                index.append((rec.page_id, _HEADER.size + len(index) * block_size))
            block += encoded
            pages_seen.add(rec.page_id)
        if block:
            put(block.ljust(block_size, b"\0"))
        if n != count:
            raise ArchiveError(f"run of {n} records, expected {count}")
        bloom = BloomFilter.sized_for(len(pages_seen))
        for pid in pages_seen:
            bloom.add(pid)
        index_offset = _HEADER.size + len(index) * block_size
        bloom_offset = index_offset + len(index) * _INDEX_ENTRY.size
        put(b"".join(_INDEX_ENTRY.pack(*entry) for entry in index) + bloom.to_bytes()
            + _FOOTER.pack(index_offset, bloom_offset, 0)[:-4])
        f.write(struct.pack("<I", crc))

    failpoints.publish(path, write, "run:pre_rename")
    return path


class RunReader:
    """One published run: header, block index and bloom filter live in
    memory; record blocks are read on demand, each read opening and
    closing the file, so a reader holds no file between reads.  A file
    it cannot open or read is a corrupt run."""

    def __init__(self, path: str):
        self.path = path
        self.name = os.path.basename(path)
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise CorruptRunError(self.name, str(exc)) from exc
        if size < _HEADER.size + _FOOTER.size:
            raise CorruptRunError(self.name, "file too small")
        footer = size - _FOOTER.size
        self._index_offset, bloom_offset, crc = _FOOTER.unpack(self._pread(footer, _FOOTER.size))
        check = 0
        for at in range(0, size - 4, READ_CHUNK):
            check = zlib.crc32(self._pread(at, min(READ_CHUNK, size - 4 - at)), check)
        if check != crc:
            raise CorruptRunError(self.name, "file crc mismatch")
        magic, self.begin_lsn, self.end_lsn, self.record_count, self.block_size = \
            _HEADER.unpack(self._pread(0, _HEADER.size))
        if magic != MAGIC:
            raise CorruptRunError(self.name, f"bad magic {magic!r}")
        meta = self._pread(self._index_offset, footer - self._index_offset)
        self.index = list(_INDEX_ENTRY.iter_unpack(meta[:bloom_offset - self._index_offset]))
        self._firsts = [first for first, _ in self.index]  # block_span's search keys
        self.bloom = BloomFilter.from_bytes(meta[bloom_offset - self._index_offset:])

    def _pread(self, offset: int, nbytes: int) -> bytes:
        try:
            with open(self.path, "rb", buffering=0) as f:
                data = os.pread(f.fileno(), nbytes, offset)
        except OSError as exc:
            raise CorruptRunError(self.name, str(exc)) from exc
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

    def _decode_blocks(self, data: bytes) -> Iterator[LogRecord]:
        try:
            for end in range(self.block_size, len(data) + 1, self.block_size):
                off = end - self.block_size
                while off + 4 <= end and struct.unpack_from("<I", data, off)[0]:
                    rec, off = LogRecord.decode(data, off)
                    yield rec
        except Exception as exc:
            raise CorruptRunError(self.name, str(exc)) from exc

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

    def scan_all(self, device=None, now: float = 0.0) -> tuple[Iterator[LogRecord], float]:
        """(records, t): a lazy stream of every record, read and decoded one
        READ_CHUNK of blocks at a time; the device is charged for all at once."""
        nbytes = self._index_offset - _HEADER.size
        t = device.charge_read(nbytes, now) if device is not None and nbytes else now
        step = max(1, READ_CHUNK // self.block_size) * self.block_size
        chunks = (self._pread(at, min(step, self._index_offset - at))
                  for at in range(_HEADER.size, self._index_offset, step))
        return (rec for data in chunks for rec in self._decode_blocks(data)), t
