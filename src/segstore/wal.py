"""Append-only redo log of page updates.

Record wire format (little-endian):

    u32 total_len | u64 lsn | u64 page_id | u64 txn_id | u64 prev_page_lsn |
    u8 op (0=set, 1=delete) | u32 key | u16 value_len | value bytes |
    u32 crc32 (over all preceding bytes of the record)

A record's LSN is its byte offset in the log file plus one, which keeps 0
free as the null LSN while scan(from) stays a direct seek.  Every record
carries the LSN of the previous record that touched the same page.

The log file on the log device is the only full copy of the log, as in
ARIES: memory holds the tail not yet written, the start offset of every
record (8 bytes each) and each page's most recent LSN, which fills the
next record's back pointer and is rebuilt on open.  Writes and the
archiver's batch reads are charged to the log device under its latency
model; scans and the open-time rebuild decode the file without a charge.
"""

import struct
import threading
import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass

from .device import Device, DeviceRole, LatencyModel
from .errors import CorruptRecordError, WalError

OP_SET = 0
OP_DELETE = 1

NULL_LSN = 0
_LSN_BASE = 1  # lsn = file offset + 1 so that 0 stays "no record"

_FIXED = struct.Struct("<IQQQQBIH")
_CRC = struct.Struct("<I")
_OVERHEAD = _FIXED.size + _CRC.size
_READ_CHUNK = 1 << 20  # bytes per file read of a scan; holds the largest record


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    page_id: int
    txn_id: int
    prev_page_lsn: int
    op: int
    key: int
    value: bytes = b""

    @property
    def encoded_size(self) -> int:
        return _OVERHEAD + len(self.value)

    @property
    def next_lsn(self) -> int:
        """LSN immediately after this record."""
        return self.lsn + self.encoded_size

    def encode(self) -> bytes:
        total = self.encoded_size
        head = _FIXED.pack(total, self.lsn, self.page_id, self.txn_id,
                           self.prev_page_lsn, self.op, self.key, len(self.value))
        body = head + self.value
        return body + _CRC.pack(zlib.crc32(body))

    @staticmethod
    def decode(buf, offset: int, base: int | None = None) -> tuple["LogRecord", int]:
        """Decode the record at buf[offset:]; returns it and its end in buf.

        base is the log-file offset of buf[0] when buf was read from the
        WAL file: it enforces the file invariant lsn == file offset + 1,
        and errors report file offsets.  Archive blocks (base None) hold
        records at unrelated offsets."""
        at = offset if base is None else base + offset
        if offset + _FIXED.size > len(buf):
            raise CorruptRecordError(at, "truncated header")
        total, lsn, page_id, txn_id, prev, op, key, vlen = _FIXED.unpack_from(buf, offset)
        end = offset + total
        if total != _OVERHEAD + vlen or end > len(buf):
            raise CorruptRecordError(at, "bad length")
        (crc,) = _CRC.unpack_from(buf, end - _CRC.size)
        if crc != zlib.crc32(bytes(buf[offset:end - _CRC.size])):
            raise CorruptRecordError(at, "crc mismatch")
        if base is not None and lsn != at + _LSN_BASE:
            raise CorruptRecordError(at, f"lsn {lsn} does not match offset")
        value = bytes(buf[offset + _FIXED.size:offset + _FIXED.size + vlen])
        return LogRecord(lsn, page_id, txn_id, prev, op, key, value), end


def _decode_records(data: bytes, base: int):
    """Yield the records that fill data, read from log-file offset base."""
    pos = 0
    while pos < len(data):
        rec, pos = LogRecord.decode(data, pos, base)
        yield rec


def _whole_prefix(data: bytes) -> int:
    """Length of data's longest prefix of whole records, by their length
    fields; len(data) when even the first record runs past the end, so
    that decoding it reports the damage."""
    pos = 0
    while pos + _FIXED.size <= len(data):
        total = _FIXED.unpack_from(data, pos)[0]
        if total == 0 or pos + total > len(data):
            break
        pos += total
    return pos or len(data)


class WriteAheadLog:
    """Single log file; appends and flushes serialized.  Reads return only
    durable records, which never change, so they go to the file without
    the lock."""

    def __init__(self, path: str, latency: LatencyModel = LatencyModel(),
                 flush_interval: int = 0):
        self.device = Device(DeviceRole.LOG, path, latency, create=True)
        self.flush_interval = flush_interval  # records between auto-flushes; 0 = every append
        self._tail = bytearray()         # log bytes [_durable, _end), not yet written
        self._starts = array("Q")        # record start offsets, ascending
        self._index: dict[int, int] = {}  # page id -> most recent lsn
        self._durable = 0                # log bytes persisted
        self._end = 0                    # log bytes appended
        self._since_flush = 0
        self._lock = threading.Lock()
        self.last_append_at = 0.0
        self._load(self.device.size())

    def _load(self, size: int) -> None:
        for rec in self._read_records(0, size):
            self._starts.append(rec.lsn - _LSN_BASE)
            self._index[rec.page_id] = rec.lsn
        self._durable = self._end = size

    def _read_records(self, off: int, limit: int):
        """Yield the records in log-file bytes [off, limit), off a record
        start, decoded from file reads that end on a record boundary.
        Charges nothing to the log device."""
        while off < limit:
            data = self.device.pread(off, min(_READ_CHUNK, limit - off))
            size = len(data) if off + len(data) == limit else _whole_prefix(data)
            yield from _decode_records(data[:size], off)
            off += size

    # -- write path ---------------------------------------------------------

    def append(self, page_id: int, txn_id: int, op: int, key: int,
               value: bytes = b"", now: float = 0.0) -> tuple[int, float]:
        """Returns (lsn, completion time).  Caller must hold the page exclusively."""
        if op not in (OP_SET, OP_DELETE):
            raise WalError(f"bad op {op}")
        if op == OP_DELETE and value:
            raise WalError("delete carries no value")
        t = now
        with self._lock:
            offset = self._end
            lsn = offset + _LSN_BASE
            prev = self._index.get(page_id, NULL_LSN)
            encoded = LogRecord(lsn, page_id, txn_id, prev, op, key, value).encode()
            self._tail += encoded
            self._end += len(encoded)
            self._starts.append(offset)
            self._index[page_id] = lsn
            self._since_flush += 1
            if self.flush_interval == 0 or self._since_flush > self.flush_interval:
                t = self._flush_to(self._end, now)
            self.last_append_at = max(self.last_append_at, t)
        return lsn, t

    def _flush_to(self, target_offset: int, now: float) -> float:
        if target_offset <= self._durable:
            return now
        n = target_offset - self._durable
        t = self.device.write(self._durable, self._tail[:n], now)
        del self._tail[:n]
        self._durable = target_offset
        self._since_flush = 0
        return t

    def flush(self, up_to: int | None = None, now: float = 0.0) -> float:
        """Make all records with lsn <= up_to durable (whole log if None)."""
        with self._lock:
            if up_to is None or up_to >= self.end_lsn():
                target = self._end
            elif up_to <= NULL_LSN:
                return now
            else:
                i = bisect_left(self._starts, up_to - _LSN_BASE + 1)
                target = self._starts[i] if i < len(self._starts) else self._end
            return self._flush_to(target, now)

    # -- read path ----------------------------------------------------------

    def end_lsn(self) -> int:
        """LSN the next append will receive; also the exclusive log bound."""
        return self._end + _LSN_BASE

    def durable_lsn(self) -> int:
        return self._durable + _LSN_BASE

    def _first_record(self, from_lsn: int, limit: int) -> int:
        """Index in _starts of the first record with lsn >= from_lsn, for a
        read of the durable log bytes below limit."""
        if from_lsn > limit + _LSN_BASE:
            raise WalError(f"scan start {from_lsn} beyond durable end")
        return bisect_left(self._starts, from_lsn - _LSN_BASE) if from_lsn > NULL_LSN else 0

    def scan(self, from_lsn: int = 0):
        """Yield durable records with lsn >= from_lsn in LSN order."""
        limit = self._durable
        i = self._first_record(from_lsn, limit)
        if i < len(self._starts):
            yield from self._read_records(self._starts[i], limit)

    def read_suffix(self, from_lsn: int, max_records: int,
                    now: float = 0.0) -> tuple[list[LogRecord], int, float]:
        """Batch read for the archiver: up to max_records durable records
        from from_lsn.

        The batch's byte span, found from the record starts, is read from
        the log device in one charged read.  Returns the records, the LSN
        to continue from, and the completion time.
        """
        limit = self._durable
        starts = self._starts
        i = self._first_record(from_lsn, limit)
        j = min(i + max_records, bisect_left(starts, limit))
        if j <= i:
            return [], from_lsn if from_lsn > NULL_LSN else _LSN_BASE, now
        # limit is a record boundary, so a batch that takes every record
        # ends there.
        start, end = starts[i], starts[j] if j < len(starts) else limit
        data, t = self.device.read(start, end - start, now)
        return list(_decode_records(data, start)), end + _LSN_BASE, t

    def close(self) -> None:
        self.device.close()
