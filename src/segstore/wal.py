"""Append-only redo log with per-page backward chains.

Record wire format (little-endian):

    u32 total_len | u64 lsn | u64 page_id | u64 txn_id | u64 prev_page_lsn |
    u8 op (0=set, 1=delete) | u32 key | u16 value_len | value bytes |
    u32 crc32 (over all preceding bytes of the record)

A record's LSN is its byte offset in the log file plus one, which keeps 0
free as the null LSN while scan(from) stays a direct seek.  Every record
carries the LSN of the previous record that touched the same page, so the
full update history of one page can be walked backward without scanning.

The log keeps an in-memory mirror of its bytes (rebuilt from the file on
open) for cheap scans; durability runs through the log device, which
applies the configured latency model.  The page recovery index - page id
to most recent LSN - is maintained inline and rebuilt on open.
"""

import struct
import threading
import zlib
from bisect import bisect_left
from dataclasses import dataclass

from .device import Device, DeviceRole, LatencyModel
from .errors import BrokenChainError, CorruptRecordError, WalError

OP_SET = 0
OP_DELETE = 1

NULL_LSN = 0
_LSN_BASE = 1  # lsn = file offset + 1 so that 0 stays "no record"

_FIXED = struct.Struct("<IQQQQBIH")
_CRC = struct.Struct("<I")
_OVERHEAD = _FIXED.size + _CRC.size


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
    def decode(buf, offset: int, check_offset: bool = False) -> tuple["LogRecord", int]:
        """check_offset enforces the WAL-file invariant lsn == offset + 1;
        archive blocks hold records at unrelated offsets."""
        if offset + _FIXED.size > len(buf):
            raise CorruptRecordError(offset, "truncated header")
        total, lsn, page_id, txn_id, prev, op, key, vlen = _FIXED.unpack_from(buf, offset)
        end = offset + total
        if total != _OVERHEAD + vlen or end > len(buf):
            raise CorruptRecordError(offset, "bad length")
        (crc,) = _CRC.unpack_from(buf, end - _CRC.size)
        if crc != zlib.crc32(bytes(buf[offset:end - _CRC.size])):
            raise CorruptRecordError(offset, "crc mismatch")
        if check_offset and lsn != offset + _LSN_BASE:
            raise CorruptRecordError(offset, f"lsn {lsn} does not match offset")
        value = bytes(buf[offset + _FIXED.size:offset + _FIXED.size + vlen])
        return LogRecord(lsn, page_id, txn_id, prev, op, key, value), end


class WriteAheadLog:
    """Single log file; appends serialized, reads lock-free over the mirror."""

    def __init__(self, path: str, latency: LatencyModel = LatencyModel(),
                 flush_interval: int = 0, max_bytes: int | None = None):
        self.device = Device(DeviceRole.LOG, path, latency, create=True)
        self.flush_interval = flush_interval  # records between auto-flushes; 0 = every append
        self.max_bytes = max_bytes
        self._mirror = bytearray()
        self._starts: list[int] = []     # record start offsets, ascending
        self._index: dict[int, int] = {}  # page id -> most recent lsn
        self._durable = 0                # mirror bytes persisted
        self._since_flush = 0
        self._truncated_lsn = NULL_LSN   # records below this are gone
        self._lock = threading.Lock()
        self.last_append_at = 0.0
        existing = self.device.size()
        if existing:
            data, _ = self.device.read(0, existing)
            self._load(data)
            self.device.reset_accounting()

    def _load(self, data: bytes) -> None:
        off = 0
        while off < len(data):
            rec, end = LogRecord.decode(data, off, check_offset=True)
            self._starts.append(off)
            self._index[rec.page_id] = rec.lsn
            off = end
        self._mirror = bytearray(data)
        self._durable = len(data)

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
            if self.max_bytes is not None and len(self._mirror) >= self.max_bytes:
                raise WalError("log device full")
            offset = len(self._mirror)
            lsn = offset + _LSN_BASE
            prev = self._index.get(page_id, NULL_LSN)
            rec = LogRecord(lsn, page_id, txn_id, prev, op, key, value)
            self._mirror += rec.encode()
            self._starts.append(offset)
            self._index[page_id] = lsn
            self._since_flush += 1
            if self.flush_interval == 0 or self._since_flush > self.flush_interval:
                t = self._flush_to(len(self._mirror), now)
            self.last_append_at = max(self.last_append_at, t)
        return lsn, t

    def _flush_to(self, target_offset: int, now: float) -> float:
        if target_offset <= self._durable:
            return now
        chunk = bytes(self._mirror[self._durable:target_offset])
        t = self.device.write(self._durable, chunk, now)
        self._durable = target_offset
        self._since_flush = 0
        return t

    def flush(self, up_to: int | None = None, now: float = 0.0) -> float:
        """Make all records with lsn <= up_to durable (whole log if None)."""
        with self._lock:
            if up_to is None or up_to >= self.end_lsn():
                target = len(self._mirror)
            elif up_to <= NULL_LSN:
                return now
            else:
                i = bisect_left(self._starts, up_to - _LSN_BASE + 1)
                target = self._starts[i] if i < len(self._starts) else len(self._mirror)
            return self._flush_to(target, now)

    # -- read path ----------------------------------------------------------

    def end_lsn(self) -> int:
        """LSN the next append will receive; also the exclusive log bound."""
        return len(self._mirror) + _LSN_BASE

    def durable_lsn(self) -> int:
        return self._durable + _LSN_BASE

    def head_lsn(self, page_id: int) -> int:
        """Most recent LSN written for the page (NULL_LSN if never touched)."""
        return self._index.get(page_id, NULL_LSN)

    def recovery_index(self) -> dict[int, int]:
        with self._lock:
            return dict(self._index)

    def scan(self, from_lsn: int = 0):
        """Yield durable records with lsn >= from_lsn in LSN order."""
        limit = self._durable
        if from_lsn > limit + _LSN_BASE:
            raise WalError(f"scan start {from_lsn} beyond durable end")
        if self._truncated_lsn and from_lsn < self._truncated_lsn:
            raise WalError(f"scan start {from_lsn} is truncated")
        off = 0
        if from_lsn > NULL_LSN:
            i = bisect_left(self._starts, from_lsn - _LSN_BASE)
            if i >= len(self._starts):
                return
            off = self._starts[i]
        while off < limit:
            rec, off = LogRecord.decode(self._mirror, off, check_offset=True)
            yield rec

    def read_suffix(self, from_lsn: int, max_records: int,
                    now: float = 0.0) -> tuple[list[LogRecord], int, float]:
        """Batch read for the archiver: up to max_records from from_lsn.

        Charged to the log device as one contiguous read.  Returns the
        records, the LSN to continue from, and the completion time.
        """
        records = []
        next_lsn = from_lsn if from_lsn > NULL_LSN else _LSN_BASE
        for rec in self.scan(from_lsn):
            records.append(rec)
            next_lsn = rec.next_lsn
            if len(records) >= max_records:
                break
        nbytes = sum(r.encoded_size for r in records)
        t = self.device.charge_read(nbytes, now) if nbytes else now
        return records, next_lsn, t

    def record_at(self, lsn: int) -> LogRecord:
        if lsn <= NULL_LSN or lsn >= self.end_lsn():
            raise BrokenChainError(f"no record at lsn {lsn}")
        if self._truncated_lsn and lsn < self._truncated_lsn:
            raise BrokenChainError(f"lsn {lsn} truncated from the log")
        rec, _ = LogRecord.decode(self._mirror, lsn - _LSN_BASE, check_offset=True)
        return rec

    def page_chain(self, page_id: int, from_lsn: int | None = None):
        """Yield the page's records newest-first following prev pointers."""
        lsn = self.head_lsn(page_id) if from_lsn is None else from_lsn
        while lsn != NULL_LSN:
            rec = self.record_at(lsn)
            if rec.page_id != page_id:
                raise BrokenChainError(
                    f"chain for page {page_id} hit record for page {rec.page_id} at lsn {lsn}")
            yield rec
            lsn = rec.prev_page_lsn

    def truncate(self, below_lsn: int) -> None:
        """Archive-driven truncation: records below below_lsn become unreadable."""
        with self._lock:
            if below_lsn > self.durable_lsn():
                raise WalError("cannot truncate beyond durable end")
            self._truncated_lsn = max(self._truncated_lsn, below_lsn)

    def close(self) -> None:
        self.device.close()
