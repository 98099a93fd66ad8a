"""Simulated storage devices.

A device is a byte store (usually file-backed) with a two-parameter cost
model: one contiguous transfer costs fixed_us plus size * per_byte_us.
Timing is explicit rather than slept: callers pass the time at which they
issue a request and get the completion time back.  A device serializes
its transfers first-come-first-served, so a request issued while the
device is still busy queues behind the in-flight one.  Group writes are
the one exception: a group write issued before the device's last transfer
has started joins that transfer when it too is a group write, at no
cost, so every member of a group completes at the end the group had when
it started (group commit; the log is the one caller).

Only the database device may fail.  Log, archive, and backup devices are
treated as stable storage and reject fail().
"""

import enum
import math
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

# Bytes copy_into copies before it starts the writeback of what it copied.
# Copying and fsyncing a 256 MiB file on an ext4 virtio disk took
# 0.08-0.09 s in 1 to 8 MiB chunks, 0.105 s in 32 MiB chunks and 0.15 s in
# one piece.
COPY_CHUNK = 8 * 1024 * 1024


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
        self.refused = 0  # transfers refused after fail()
        self._busy_until = 0.0
        self._group_start = -math.inf  # start of the last transfer, if a group write
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
        self.reads = self.writes = self.refused = 0
        self.bytes_read = self.bytes_written = 0
        self._busy_until = 0.0
        self._group_start = -math.inf

    def _admit(self, nbytes: int, now: float) -> float:
        """Reserve the device for one transfer; returns completion time."""
        cost = self.latency.cost_us(nbytes)
        with self._lock:
            start = max(now, self._busy_until)
            done = start + cost
            self._busy_until = done
            self._group_start = -math.inf
        return done

    def _check(self) -> None:
        if self.failed:
            self.refused += 1
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
        transfers it models.  The copy runs in chunks of at most COPY_CHUNK
        bytes, and after each chunk asks the kernel to start writing it
        back to fd's disk (POSIX_FADV_DONTNEED, which does not wait for the
        write), so the disk writes overlap the copy and a later fsync of fd
        waits only for the last chunk.  Raises StorageError if this file
        ends first."""
        done = 0
        while done < nbytes:
            n = os.copy_file_range(self._fd, fd, min(COPY_CHUNK, nbytes - done), done, done)
            if n == 0:
                raise StorageError(f"short copy at offset {done}: {done} < {nbytes}")
            os.posix_fadvise(fd, done, n, os.POSIX_FADV_DONTNEED)
            done += n

    def write(self, offset: int, data: bytes, now: float = 0.0) -> float:
        done = self.charge_write(len(data), now)
        self._pwrite(offset, data)
        return done

    def _pwrite(self, offset: int, data: bytes) -> None:
        if os.pwrite(self._fd, data, offset) != len(data):
            raise StorageError(f"short write at offset {offset}")

    def group_write(self, offset: int, data: bytes, now: float = 0.0) -> float:
        """Write data like write(), except that when the device's last
        transfer is a group write that starts after now, data joins it at
        no cost: the transfer keeps its end and is not counted as another
        write.  Otherwise data starts its own group write, as write()
        would.  Returns the transfer's completion time, the same for every
        member of a group; data is in the file when this returns."""
        self._check()
        nbytes = len(data)
        with self._lock:
            if self._group_start <= now:
                self._group_start = max(now, self._busy_until)
                self._busy_until = self._group_start + self.latency.cost_us(nbytes)
                self.writes += 1
            self.bytes_written += nbytes
            done = self._busy_until
        self._pwrite(offset, data)
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
