"""Buffer pool with CLOCK eviction over simulated volumes.

fix/unfix pin pages and take a shared or exclusive frame latch; a pinned
frame is never evicted and eviction of a dirty frame enforces the
write-ahead rule (log flushed through the page's LSN before the page is
written).  Misses and dirty write-back go to the live volume: the
database volume, then, once a restore manager attaches to the failed
device (set_restore_gate), its replacement, gated per segment: a page is
read from (or flushed to) the replacement only once its segment is restored.

All page I/O (a miss's read, a dirty victim's log flush and write, and
explicit write-back) runs under the pool's one condition, so a frame is
either free or resident.  Only waits on a restore happen outside it, and
two fix flavors exist so both threaded servers and the deterministic
benchmark engine can share this code:

  fix_page      blocks until the page is resident, releasing the pool's
                condition while it waits on the restore manager's
                completion signal, so it waits only for its own segment;
  try_fix_page  never blocks on restore - it returns the segment's
                RestoreHandle (Blocked) so a cooperative caller can park
                on it and retry.
"""

import threading

from .errors import InvalidPageIdError, MediaFailureError, RestoreError, StorageError
from .restore import RestoreHandle
from .volume import Volume
from .wal import WriteAheadLog


class BufferFrame:
    __slots__ = ("page", "pin_count", "dirty", "ref", "readers", "writer")

    def __init__(self):
        self.page = None
        self.pin_count = 0
        self.dirty = False
        self.ref = False
        # Shared/exclusive latch, guarded by the pool's condition.
        self.readers = 0
        self.writer = False


class PageHandle:
    """One fix; release it exactly once via unfix_page."""

    __slots__ = ("frame", "mode", "released")

    def __init__(self, frame: BufferFrame, mode: str):
        self.frame = frame
        self.mode = mode
        self.released = False

    @property
    def page(self):
        return self.frame.page


# try_fix_page outcome when the access needs a segment restored first.
Blocked = RestoreHandle


class BufferPool:
    def __init__(self, volume: Volume, wal: WriteAheadLog, capacity: int):
        if capacity <= 0:
            raise StorageError("pool needs at least one frame")
        self.volume = volume
        self.live_volume = volume  # misses read and write-back writes here
        self.wal = wal
        self.capacity = capacity
        self._frames = [BufferFrame() for _ in range(capacity)]
        self._free = self._frames[::-1]  # popped from the end: frame 0 first
        self._table: dict[int, BufferFrame] = {}
        self._hand = 0
        self._cond = threading.Condition()
        self._gate = None  # restore manager: replacement, is_restored, request_segment
        self._dirty_n = 0
        self.page_reads = 0
        self.evictions = 0
        self.on_page_read = None  # callback(t_us) for metrics

    # -- failure wiring -----------------------------------------------------

    def fail_device(self, now: float = 0.0) -> int:
        """Inject the media failure and return the failure LSN; the WAL is
        flushed so that LSN is durable before anyone archives up to it."""
        self.wal.flush(now=now)
        self.volume.device.fail()
        return self.wal.end_lsn()

    def set_restore_gate(self, gate) -> None:
        """Attach the restore manager of the failed device: from now on
        misses and write-back go to its replacement, segment by segment."""
        if not self.failed:
            raise RestoreError("database device has not failed")
        with self._cond:
            # Any fix that sees the gate also sees the replacement.
            self.live_volume = gate.replacement
            self._gate = gate
            self._cond.notify_all()

    @property
    def failed(self) -> bool:
        return self.volume.device.failed

    def _segment_ready(self, page_id: int) -> bool:
        seg = self.volume.geometry.segment_of(page_id)
        return self._gate is not None and self._gate.is_restored(seg)

    def _blocked(self, page_id: int, now: float) -> Blocked:
        if self._gate is None:
            raise MediaFailureError(
                f"database device failed and no restore manager is attached "
                f"(page {page_id})")
        return self._gate.request_segment(self.volume.geometry.segment_of(page_id), now)

    # -- fix / unfix ----------------------------------------------------------

    def fix_page(self, page_id: int, mode: str = "exclusive",
                 now: float = 0.0, timeout: float | None = 60.0):
        """Blocking fix; returns (PageHandle, t).  A miss is read under the
        pool's condition; a wait for the page's segment to be restored
        happens outside it."""
        while True:
            out = self._fix_inner(page_id, mode, now, blocking=True)
            if isinstance(out, Blocked):
                now = max(now, out.wait(timeout))
                continue
            return out

    def try_fix_page(self, page_id: int, mode: str = "exclusive", now: float = 0.0):
        """Cooperative fix; returns (PageHandle, t) or Blocked."""
        return self._fix_inner(page_id, mode, now, blocking=False)

    def _fix_inner(self, page_id: int, mode: str, now: float, blocking: bool):
        if not 0 <= page_id < self.volume.geometry.page_count:
            raise InvalidPageIdError(f"page {page_id} out of range")
        if mode not in ("shared", "exclusive"):
            raise StorageError(f"bad latch mode {mode}")
        with self._cond:
            while True:
                frame = self._table.get(page_id)
                if frame is not None:
                    frame.pin_count += 1
                    frame.ref = True
                    self._latch_locked(frame, mode)
                    return PageHandle(frame, mode), now
                if self.failed and not self._segment_ready(page_id):
                    return self._blocked(page_id, now)
                if self._free:
                    break
                pick = self._clock_pick_locked()
                if pick is None:
                    if not blocking:
                        raise StorageError("every frame pinned; pool too small")
                    self._cond.wait()
                    continue
                kind, victim = pick
                if kind == "blocked":
                    return self._blocked(victim, now)
                if kind == "dirty":
                    now = self._write_back_locked(victim, now)
                self._retire_locked(victim)
            page, now = self.live_volume.read_page(page_id, now)
            frame = self._free.pop()
            frame.page = page
            frame.pin_count = 1
            frame.ref = True
            self._table[page_id] = frame
            self._latch_locked(frame, mode)
            self.page_reads += 1
            if self.on_page_read is not None:
                self.on_page_read(now)
            return PageHandle(frame, mode), now

    def unfix_page(self, handle: PageHandle, mark_dirty: bool = False) -> None:
        if handle.released:
            raise StorageError("page handle released twice")
        if mark_dirty and handle.mode != "exclusive":
            raise StorageError("dirtying a page requires the exclusive latch")
        handle.released = True
        frame = handle.frame
        with self._cond:
            if frame.pin_count <= 0:
                raise StorageError("unfix without matching fix")
            if mark_dirty and not frame.dirty:
                frame.dirty = True
                self._dirty_n += 1
            self._unlatch_unpin_locked(frame, handle.mode)

    # -- frame latches (callers hold self._cond) ------------------------------

    def _latch_locked(self, frame: BufferFrame, mode: str) -> None:
        if mode == "shared":
            while frame.writer:
                self._cond.wait()
            frame.readers += 1
        else:
            while frame.writer or frame.readers:
                self._cond.wait()
            frame.writer = True

    def _unlatch_unpin_locked(self, frame: BufferFrame, mode: str) -> None:
        if mode == "shared":
            frame.readers -= 1
        else:
            frame.writer = False
        frame.pin_count -= 1
        self._cond.notify_all()

    # -- eviction internals ---------------------------------------------------

    def _clock_pick_locked(self):
        """One CLOCK sweep over a full pool.  Returns ("clean", frame),
        ("dirty", frame), ("blocked", page_id) when only restore-gated dirty
        frames remain, or None when everything is pinned."""
        blocked_page = None
        for _ in range(2 * self.capacity):
            frame = self._frames[self._hand]
            self._hand = (self._hand + 1) % self.capacity
            if frame.pin_count > 0:
                continue
            if frame.ref:
                frame.ref = False
                continue
            if frame.dirty:
                if self.failed and not self._segment_ready(frame.page.page_id):
                    blocked_page = frame.page.page_id
                    continue
                return "dirty", frame
            return "clean", frame
        if blocked_page is not None:
            return "blocked", blocked_page
        return None

    def _retire_locked(self, frame: BufferFrame) -> None:
        """Free a clean, unpinned frame."""
        del self._table[frame.page.page_id]
        frame.page = None
        frame.ref = False
        self._free.append(frame)
        self.evictions += 1

    def _write_back_locked(self, frame: BufferFrame, now: float) -> float:
        """Write-ahead rule, then write the dirty page to the live volume.
        The caller holds the condition and no writer holds the frame's
        latch.  A failed write leaves the frame dirty."""
        page = frame.page
        t = self.wal.flush(page.page_lsn, now)
        t = self.live_volume.write_page(page, t)
        frame.dirty = False
        self._dirty_n -= 1
        return t

    # -- explicit flushes -------------------------------------------------------

    def flush_page(self, page_id: int, now: float = 0.0,
                   timeout: float | None = 60.0) -> float:
        """Durably write one page if it is dirty in the pool, once no writer
        holds its latch.  Releases the pool's condition to wait on the restore
        gate when the replacement segment is not restored yet."""
        while True:
            with self._cond:
                frame = self._table.get(page_id)
                if frame is None or not frame.dirty:
                    return now
                if self.failed and not self._segment_ready(page_id):
                    blocked = self._blocked(page_id, now)
                elif frame.writer:
                    self._cond.wait()
                    continue
                else:
                    return self._write_back_locked(frame, now)
            now = max(now, blocked.wait(timeout))

    def flush_all(self, now: float = 0.0) -> float:
        t = now
        with self._cond:
            dirty = [f.page.page_id for f in self._frames if f.dirty]
        for page_id in dirty:
            t = max(t, self.flush_page(page_id, t))
        return t

    def flush_some(self, limit: int, now: float = 0.0) -> tuple[int, float]:
        """Background page cleaning: write back up to limit dirty, unpinned
        pages under the pool's condition, skipping anything the restore gate
        is not ready for.  Never waits on a restore; returns (pages flushed,
        completion time)."""
        flushed = 0
        with self._cond:
            for frame in self._frames:
                if flushed >= limit:
                    break
                if not frame.dirty or frame.pin_count:
                    continue
                if self.failed and not self._segment_ready(frame.page.page_id):
                    continue
                now = self._write_back_locked(frame, now)
                flushed += 1
        return flushed, now

    def dirty_count(self) -> int:
        return self._dirty_n

    # -- introspection ----------------------------------------------------------

    def resident(self, page_id: int) -> bool:
        with self._cond:
            return page_id in self._table

    def pin_count(self, page_id: int) -> int:
        with self._cond:
            frame = self._table.get(page_id)
            return frame.pin_count if frame else 0
