"""Simulated storage devices.

A device is a byte store (usually file-backed) with a two-parameter cost
model: one contiguous transfer costs fixed_us plus size * per_byte_us.
Timing is explicit rather than slept: callers pass the time at which they
issue a request and get the completion time back.  A device serializes
its transfers first-come-first-served, so a request issued while the
device is still busy queues behind the in-flight one.

Only the database device may fail.  Log, archive, and backup devices are
treated as stable storage and reject fail().
"""

import enum
import os
import threading
from dataclasses import dataclass

from .errors import MediaFailureError, StorageError


class DeviceRole(enum.Enum):
    DATABASE = "database"
    REPLACEMENT = "replacement"
    LOG = "log"
    ARCHIVE = "archive"
    BACKUP = "backup"


# Roles that may suffer a media failure.
_FAILABLE = {DeviceRole.DATABASE}


@dataclass(frozen=True)
class LatencyModel:
    fixed_us: float = 0.0
    per_byte_us: float = 0.0

    def cost_us(self, nbytes: int) -> float:
        return self.fixed_us + nbytes * self.per_byte_us


class Device:
    """Byte store plus latency accounting and failure state.

    path=None builds an accounting-only device (no byte store) for
    subsystems that manage their own files, like the log archive.
    """

    def __init__(self, role: DeviceRole, path: str | None = None,
                 latency: LatencyModel = LatencyModel(), create: bool = False):
        self.role = role
        self.path = path
        self.latency = latency
        self.failed = False
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._busy_until = 0.0
        self._lock = threading.Lock()
        self._fd = None
        if path is not None:
            flags = os.O_RDWR | (os.O_CREAT if create else 0)
            self._fd = os.open(path, flags, 0o644)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def fail(self) -> None:
        if self.role not in _FAILABLE:
            raise StorageError(f"{self.role.value} device is stable storage and cannot fail")
        if self.failed:
            raise StorageError("device already failed")
        self.failed = True

    def reset_accounting(self) -> None:
        """Forget every transfer so far: set-up cost is not workload cost."""
        self.reads = self.writes = 0
        self.bytes_read = self.bytes_written = 0
        self._busy_until = 0.0

    def _admit(self, nbytes: int, now: float) -> float:
        """Reserve the device for one transfer; returns completion time."""
        cost = self.latency.cost_us(nbytes)
        with self._lock:
            start = max(now, self._busy_until)
            done = start + cost
            self._busy_until = done
        return done

    def _check(self) -> None:
        if self.failed:
            raise MediaFailureError(f"{self.role.value} device has failed")

    def read(self, offset: int, nbytes: int, now: float = 0.0) -> tuple[bytes, float]:
        done = self.charge_read(nbytes, now)
        return self.pread(offset, nbytes), done

    def pread(self, offset: int, nbytes: int) -> bytes:
        """The bytes at offset, with no charge: for reads that are not a
        modelled transfer, like decoding a log that was already paid for."""
        data = os.pread(self._fd, nbytes, offset)
        if len(data) != nbytes:
            raise StorageError(f"short read at offset {offset}: {len(data)} < {nbytes}")
        return data

    def copy_into(self, fd: int, nbytes: int) -> None:
        """Copy the first nbytes of this file to the start of file fd,
        inside the kernel and with no charge: the caller charges the
        transfers it models.  Raises StorageError if this file ends first."""
        done = 0
        while done < nbytes:
            n = os.copy_file_range(self._fd, fd, nbytes - done, done, done)
            if n == 0:
                raise StorageError(f"short copy at offset {done}: {done} < {nbytes}")
            done += n

    def write(self, offset: int, data: bytes, now: float = 0.0) -> float:
        done = self.charge_write(len(data), now)
        if os.pwrite(self._fd, data, offset) != len(data):
            raise StorageError(f"short write at offset {offset}")
        return done

    # Transfer accounting; subsystems with their own file I/O call it directly.
    def charge_read(self, nbytes: int, now: float = 0.0) -> float:
        self._check()
        self.reads += 1
        self.bytes_read += nbytes
        return self._admit(nbytes, now)

    def charge_write(self, nbytes: int, now: float = 0.0) -> float:
        self._check()
        self.writes += 1
        self.bytes_written += nbytes
        return self._admit(nbytes, now)

    def size(self) -> int:
        return os.fstat(self._fd).st_size
