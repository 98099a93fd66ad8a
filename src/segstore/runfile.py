"""Immutable sorted-run files for the log archive.

One run holds the log records of a contiguous LSN interval, re-sorted by
(page id, LSN).  Layout (little-endian):

    header : magic "SGAR3" | u64 begin_lsn | u64 end_lsn | u64 record_count
             | u32 block_size
    blocks : records in WAL wire format, packed into fixed-size blocks and
             zero padded (a u32 total_len of 0 ends a block early)
    index  : u64 first_page_id | u64 last_page_id, one entry per block;
             block k starts at header size + k * block_size
    footer : u64 index_offset | u32 crc32 of the whole file before this
             field

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
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from . import failpoints
from .errors import ArchiveError, CorruptRunError
from .wal import READ_CHUNK, LogRecord

# SGAR1 runs held the 63-byte records of an older WAL layout; SGAR2 runs
# indexed each block by its first page and offset and carried a bloom filter.
MAGIC = b"SGAR3"
_HEADER = struct.Struct("<5sQQQI")
_INDEX_ENTRY = struct.Struct("<QQ")
_FOOTER = struct.Struct("<QI")

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
                index.append([rec.page_id, rec.page_id])
            index[-1][1] = rec.page_id
            block += encoded
        if block:
            put(block.ljust(block_size, b"\0"))
        if n != count:
            raise ArchiveError(f"run of {n} records, expected {count}")
        index_offset = _HEADER.size + len(index) * block_size
        put(b"".join(_INDEX_ENTRY.pack(*entry) for entry in index)
            + _FOOTER.pack(index_offset, 0)[:-4])
        f.write(struct.pack("<I", crc))

    failpoints.publish(path, write, "run:pre_rename")
    return path


class RunReader:
    """One published run: the header and the block index live in memory,
    the index as two ascending arrays of each block's first and last page
    id (firsts, lasts); record blocks are read on demand, each read
    opening and closing the file, so a reader holds no file between
    reads.  A file it cannot open or read is a corrupt run."""

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
        self._index_offset, crc = _FOOTER.unpack(self._pread(footer, _FOOTER.size))
        check = 0
        for at in range(0, size - 4, READ_CHUNK):
            check = zlib.crc32(self._pread(at, min(READ_CHUNK, size - 4 - at)), check)
        if check != crc:
            raise CorruptRunError(self.name, "file crc mismatch")
        magic, self.begin_lsn, self.end_lsn, self.record_count, self.block_size = \
            _HEADER.unpack(self._pread(0, _HEADER.size))
        if magic != MAGIC:
            raise CorruptRunError(self.name, f"bad magic {magic!r}")
        nbytes = footer - self._index_offset
        nblocks = nbytes // _INDEX_ENTRY.size
        if nbytes < 0 or nbytes % _INDEX_ENTRY.size \
                or _HEADER.size + nblocks * self.block_size != self._index_offset:
            raise CorruptRunError(self.name, "index length does not match block count")
        index = array("Q", self._pread(self._index_offset, nbytes))
        if sys.byteorder == "big":
            index.byteswap()
        self.firsts, self.lasts = index[0::2], index[1::2]

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
        """Byte range [start, end) of exactly the blocks whose page ids,
        first to last, meet [first_page, last_page]; (0, 0) when none does.

        Block k holds pages firsts[k] to lasts[k], and both arrays ascend,
        so those blocks run from the first whose last page is >= first_page
        to the last whose first page is <= last_page."""
        start = bisect_left(self.lasts, first_page)
        end = bisect_right(self.firsts, last_page)
        if end <= start:
            return 0, 0
        return _HEADER.size + start * self.block_size, _HEADER.size + end * self.block_size

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
