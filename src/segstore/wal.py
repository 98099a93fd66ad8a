"""Append-only redo log of page updates.

Record wire format (little-endian):

    u32 total_len | u64 lsn | u64 page_id | u8 op (0=set, 1=delete) |
    u32 key | u16 value_len | value bytes |
    u32 crc32 (over all preceding bytes of the record)

A record carries only what redo reads: a set of a 16-byte value takes
47 bytes and a delete 31.  A record's LSN is its byte offset in the log
file plus one, which keeps 0 free as the null LSN while scan(from) stays
a direct seek.

The log file on the log device is the only full copy of the log, as in
ARIES.  An append writes its record before it returns, so the whole log
is durable, and the log keeps no per-page state.  Appends commit in
groups: an append issued while the log device's last transfer is an
append write that has not yet started joins that write, which grows by
the record's per-byte cost, and returns the write's new end; any other
append starts its own write when the device is free.  A charged log read
closes the group.  Completion times therefore never decrease in LSN
order, and none is later than one write per append would give.  An LSN
is a log address, so a read seeks straight to it and decodes records
from there, each from the file read that holds it whole; a read that
starts inside a record raises CorruptRecordError.  Writes are charged to
the log device under its latency model; scans and the open-time check,
which decodes every record, read the file without a charge.

The archiver's batch reads (read_suffix) are served from the log buffer
when they can.  Once a first read arms it, the buffer keeps each record
appended since the last read, with its completion time, so an archiver
that keeps up with the log reads the records appended a few milliseconds
earlier from memory: the read charges the log device nothing, leaves the
append group open, and completes once the newest record it returns is
durable.  A read the buffer cannot serve (a log opened again, a start
the buffer does not hold, or a buffer dropped after BUFFER_RECORDS
records) goes to the file, is charged to the log device as one read,
and arms the buffer again at the log's end.  A log that nobody archives
keeps no records in memory.
"""

import struct
import threading
import zlib
from dataclasses import dataclass
from itertools import islice

from .device import Device, DeviceRole, LatencyModel
from .errors import CorruptRecordError, WalError

OP_SET = 0
OP_DELETE = 1

NULL_LSN = 0
_LSN_BASE = 1  # lsn = file offset + 1 so that 0 stays "no record"

_FIXED = struct.Struct("<IQQBIH")
_LEN = struct.Struct("<I")  # a record's leading total_len field
_CRC = struct.Struct("<I")
_OVERHEAD = _FIXED.size + _CRC.size
_MAX_VALUE = (1 << 16) - 1  # value_len is a u16
READ_CHUNK = 64 * 1024  # bytes per uncharged file read, here and in runfile
# Records the log buffer holds before it is dropped: an archiver that
# keeps up reads a few hundred at a time, one that falls behind reads
# the file until it catches up.
BUFFER_RECORDS = 4096


@dataclass(frozen=True, slots=True)
class LogRecord:
    lsn: int
    page_id: int
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
        body = _FIXED.pack(self.encoded_size, self.lsn, self.page_id, self.op, self.key,
                           len(self.value)) + self.value
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
        total, lsn, page_id, op, key, vlen = _FIXED.unpack_from(buf, offset)
        end = offset + total
        if total != _OVERHEAD + vlen or end > len(buf):
            raise CorruptRecordError(at, "bad length")
        (crc,) = _CRC.unpack_from(buf, end - _CRC.size)
        if crc != zlib.crc32(bytes(buf[offset:end - _CRC.size])):
            raise CorruptRecordError(at, "crc mismatch")
        if base is not None and lsn != at + _LSN_BASE:
            raise CorruptRecordError(at, f"lsn {lsn} does not match offset")
        value = bytes(buf[offset + _FIXED.size:offset + _FIXED.size + vlen])
        return LogRecord(lsn, page_id, op, key, value), end


class WriteAheadLog:
    """Single log file; appends are serialized, and each is written before
    it returns.  Records never change once written, so reads go to the
    file without the lock; the log buffer is guarded by it."""

    def __init__(self, path: str, latency: LatencyModel = LatencyModel()):
        self.device = Device(DeviceRole.LOG, path, latency, create=True)
        self._lock = threading.Lock()
        self._end = self._load(self.device.size())  # log bytes written
        # The log buffer: (record, completion time) for each record from
        # _buf_lsn to the log's end, or None until a file read arms it.
        self._buf: list[tuple[LogRecord, float]] | None = None
        self._buf_lsn = NULL_LSN

    def _load(self, size: int) -> int:
        """Decode every record: a damaged log or an older layout fails at open."""
        try:
            for _ in self._read_records(0, size):
                pass
        except CorruptRecordError:
            self.device.close()
            raise
        return size

    def _read_records(self, off: int, limit: int):
        """Yield the records in log-file bytes [off, limit), off a record
        start.  Each uncharged file read takes READ_CHUNK bytes, or the
        first record whole if it is longer; the whole records in it are
        decoded, and the next read starts after the last of them.  A record
        that limit cuts short raises CorruptRecordError."""
        size = READ_CHUNK
        while off < limit:
            data = self.device.pread(off, min(size, limit - off))
            n = len(data)
            more = off + n < limit  # a record cut by data is read next
            pos, size = 0, READ_CHUNK
            while pos < n:
                if more:
                    if pos + _LEN.size > n:
                        break
                    (total,) = _LEN.unpack_from(data, pos)
                    if pos + total > n:
                        size = max(size, total)
                        break
                rec, pos = LogRecord.decode(data, pos, off)
                yield rec
            off += pos

    # -- write path ---------------------------------------------------------

    def append(self, page_id: int, op: int, key: int, value: bytes = b"",
               now: float = 0.0) -> tuple[int, float]:
        """Write one record, joining a queued log write if there is one;
        returns (lsn, completion time), when it is durable.  Caller must
        hold the page exclusively."""
        if op not in (OP_SET, OP_DELETE):
            raise WalError(f"bad op {op}")
        if op == OP_DELETE and value:
            raise WalError("delete carries no value")
        if len(value) > _MAX_VALUE:
            raise WalError(f"value of {len(value)} bytes exceeds {_MAX_VALUE}")
        with self._lock:
            lsn = self._end + _LSN_BASE
            rec = LogRecord(lsn, page_id, op, key, value)
            encoded = rec.encode()
            t = self.device.group_write(self._end, encoded, now)
            self._end += len(encoded)
            buf = self._buf
            if buf is not None:
                if len(buf) < BUFFER_RECORDS:
                    buf.append((rec, t))
                else:
                    self._buf = None
        return lsn, t

    def flush(self, up_to: int | None = None, now: float = 0.0) -> float:
        """Every record is durable once its append returns: writes nothing.
        No engine code calls it; perfbench's tracer patches it by name."""
        return now

    # -- read path ----------------------------------------------------------

    def end_lsn(self) -> int:
        """LSN the next append will receive; also the exclusive log bound."""
        return self._end + _LSN_BASE

    def _offset(self, from_lsn: int, limit: int) -> int:
        """Log-file offset of from_lsn, for a read of the log bytes below
        limit."""
        off = max(from_lsn, _LSN_BASE) - _LSN_BASE
        if off > limit:
            raise WalError(f"scan start {from_lsn} beyond log end")
        return off

    def scan(self, from_lsn: int = 0):
        """Yield the records with lsn >= from_lsn in LSN order.  from_lsn is
        0 or a record start; any other start raises CorruptRecordError."""
        limit = self._end
        yield from self._read_records(self._offset(from_lsn, limit), limit)

    def read_suffix(self, from_lsn: int, max_records: int,
                    now: float = 0.0) -> tuple[list[LogRecord], int, float]:
        """Batch read for the archiver: up to max_records records from
        from_lsn, which must be a record start, as in scan (the archiver's
        cursor always is).  Returns the records, which are the first
        max_records of scan's stream, the LSN to continue from, and the
        completion time.

        When from_lsn is the log buffer's first record, the records come
        from the buffer and the read completes at the later of now and the
        completion of the newest record returned.  Otherwise their byte
        span is charged to the log device as one read, and the buffer is
        armed at the log's end."""
        with self._lock:
            buf = self._buf
            if buf is not None and from_lsn == self._buf_lsn:
                batch = buf[:max_records]
                del buf[:max_records]
                if not batch:
                    return [], from_lsn, now
                self._buf_lsn = batch[-1][0].next_lsn
                return [rec for rec, _ in batch], self._buf_lsn, max(now, batch[-1][1])
            limit = self._end
            self._buf, self._buf_lsn = [], limit + _LSN_BASE
        start = self._offset(from_lsn, limit)
        records = list(islice(self._read_records(start, limit), max_records))
        if not records:
            return [], start + _LSN_BASE, now
        end = records[-1].next_lsn
        return records, end, self.device.charge_read(end - _LSN_BASE - start, now)

    def close(self) -> None:
        self.device.close()
