"""Buffer pool with usage-count CLOCK eviction over simulated volumes.

fix/unfix pin a page and take its frame's one latch, held from fix to
unfix; a pinned frame is never evicted.  The pool never touches the log:
the write-ahead rule (a page is written only after its log records are
durable) is the log's own contract, since every WAL append is durable
when it returns.  Misses and dirty write-back go to the live volume: the
database volume, then, once a restore manager attaches to the failed
device (set_restore_gate), its replacement, gated per segment: a page is
read from (or flushed to) the replacement only once its segment is
restored.

All page I/O (a miss's read, a dirty victim's write, and explicit
write-back) runs under the pool's one condition, so no fix sees a frame
between two pages.  A fix or flush that must wait for an unfix (a
latched frame, or a pool with every frame pinned) is counted while it
waits, and an unfix notifies the condition only when one is.  Only
waits on a restore happen outside it, and two fix flavors exist so both
threaded servers and the deterministic benchmark engine can share this
code:

  fix_page      blocks until the page is resident, releasing the pool's
                condition while it waits on the restore manager's
                completion signal, so it waits only for its own segment;
  try_fix_page  never blocks on restore - it returns the segment's
                RestoreHandle (Blocked) so a cooperative caller can park
                on it and retry.

A miss has one path.  Until the pool is full it takes the next unused
frame, 0, 1, 2, ...; after that the page it reads takes the frame of a
CLOCK victim, clean or dirty.  Each frame keeps a usage count, not a
reference bit (generalized CLOCK, Effelsberg & Haerder, ACM TODS 1984;
PostgreSQL's clock sweep): a miss sets its frame's count to 1 and a hit
raises it by 1, up to _MAX_USAGE.  The sweep lowers each unpinned
nonzero count it passes and takes the first unpinned frame whose count
is 0, so a page hit often outlives several pages read once.

The miss issues its own read first; a dirty victim's write follows at
the same virtual time, so it queues behind the read on the device and
the miss returns when its read completes (write-behind eviction).  The
victim's image is in the file before the fix returns, and any later
transfer on the device, a miss on the victim page included, queues
behind the write.  If the read or the write fails, nothing is evicted:
the victim stays resident, and dirty if it was, and a page already read
is dropped.

Frame state is kept in flat arrays indexed by frame number, not in an
object per frame: the resident Page (or None), a pin count, one flag
byte (dirty, latch held) and one usage-count byte, and the pool counts
the frames filled so far; there is no free list.  A page id indexes an
array('i') of its frame, or -1, at 4 bytes per device page, so a
resident page costs only its Page.  A PageHandle carries its frame
number and its page.

Two hands move over the frames: the CLOCK hand that picks victims, and
the page cleaner's hand, from which flush_some resumes, so background
write-back sweeps the pool instead of rewriting its lowest frames.
"""

import threading
from array import array

from .errors import InvalidPageIdError, MediaFailureError, RestoreError, StorageError
from .restore import RestoreHandle
from .volume import Volume

# A frame's flag bits in BufferPool._bits.
_DIRTY = 1
_LATCHED = 2  # a fix holds the frame's latch

# Cap of a frame's usage count in BufferPool._usage: a hit raises it by 1
# up to here, and the CLOCK sweep lowers it by 1 each time it passes.
_MAX_USAGE = 5


class PageHandle:
    """One fix; release it exactly once via unfix_page."""

    __slots__ = ("frame", "page", "released")

    def __init__(self, frame: int, page):
        self.frame = frame
        self.page = page
        self.released = False


# try_fix_page outcome when the access needs a segment restored first.
Blocked = RestoreHandle


class BufferPool:
    def __init__(self, volume: Volume, capacity: int):
        if capacity <= 0:
            raise StorageError("pool needs at least one frame")
        self.volume = volume
        self.live_volume = volume  # misses read and write-back writes here
        self.capacity = capacity
        # Frame state, indexed by frame number and guarded by _cond.
        self._pages = [None] * capacity
        self._pins = array("i", (0,)) * capacity
        self._bits = bytearray(capacity)  # _DIRTY | _LATCHED
        self._usage = bytearray(capacity)  # CLOCK usage count, 0.._MAX_USAGE
        self._filled = 0  # frames [0, _filled) hold a page; the rest are unused
        # Page id -> its frame, or -1 when the page is not resident.
        self._frame_of = array("i", (-1,)) * volume.geometry.page_count
        self._hand = 0  # CLOCK hand of the eviction sweep
        self._clean_hand = 0  # next frame flush_some visits
        self._cond = threading.Condition()
        self._waiters = 0  # threads in _wait_locked: an unfix notifies only them
        self._gate = None  # restore manager: replacement, is_restored, request_segment
        self._dirty_n = 0
        self.page_reads = 0
        self.evictions = 0
        self.on_page_read = None  # callback(t_us) for metrics

    # -- failure wiring -----------------------------------------------------

    def fail_device(self) -> None:
        """Inject the media failure; the failure LSN is the log's end."""
        self.volume.device.fail()

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

    def _gated(self, page_id: int) -> bool:
        """True while page I/O must wait: the device failed and the page's
        segment is not restored on the replacement yet."""
        if not self.failed:
            return False
        seg = self.volume.geometry.segment_of(page_id)
        return self._gate is None or not self._gate.is_restored(seg)

    def _blocked(self, page_id: int, now: float) -> Blocked:
        if self._gate is None:
            raise MediaFailureError(
                f"database device failed and no restore manager is attached "
                f"(page {page_id})")
        return self._gate.request_segment(self.volume.geometry.segment_of(page_id), now)

    # -- fix / unfix ----------------------------------------------------------

    def fix_page(self, page_id: int, now: float = 0.0,
                 timeout: float | None = 60.0):
        """Blocking fix; returns (PageHandle, t).  A miss is read under the
        pool's condition; a wait for the page's segment to be restored
        happens outside it."""
        while True:
            out = self._fix_inner(page_id, now, blocking=True)
            if isinstance(out, Blocked):
                now = max(now, out.wait(timeout))
                continue
            return out

    def try_fix_page(self, page_id: int, now: float = 0.0):
        """Cooperative fix; returns (PageHandle, t) or Blocked."""
        return self._fix_inner(page_id, now, blocking=False)

    def _fix_inner(self, page_id: int, now: float, blocking: bool):
        if not 0 <= page_id < self.volume.geometry.page_count:
            raise InvalidPageIdError(f"page {page_id} out of range")
        with self._cond:
            while True:
                f = self._frame_of[page_id]
                if f >= 0:
                    self._pins[f] += 1  # the pin keeps the frame while we wait
                    if self._usage[f] < _MAX_USAGE:
                        self._usage[f] += 1
                    while self._bits[f] & _LATCHED:
                        self._wait_locked()
                    self._bits[f] |= _LATCHED
                    return PageHandle(f, self._pages[f]), now
                if self._gated(page_id):
                    return self._blocked(page_id, now)
                if self._filled < self.capacity:
                    f = self._filled  # the next unused frame
                    break
                pick = self._clock_pick_locked()
                if pick is None:
                    if not blocking:
                        raise StorageError("every frame pinned; pool too small")
                    self._wait_locked()
                    continue
                kind, victim = pick
                if kind == "blocked":
                    return self._blocked(victim, now)
                f = victim
                break
            page, t = self.live_volume.read_page(page_id, now)
            if f == self._filled:
                self._filled += 1
            else:  # the page takes its victim's frame
                if self._bits[f] & _DIRTY:
                    # Issued at the miss's own time, the write queues behind
                    # the read on the device; the miss does not wait for it.
                    self._write_back_locked(f, now)
                self._frame_of[self._pages[f].page_id] = -1
                self.evictions += 1
            now = t
            self._pages[f] = page
            self._pins[f] = 1
            self._bits[f] = _LATCHED
            self._usage[f] = 1
            self._frame_of[page_id] = f
            self.page_reads += 1
            if self.on_page_read is not None:
                self.on_page_read(now)
            return PageHandle(f, page), now

    def unfix_page(self, handle: PageHandle, mark_dirty: bool = False) -> None:
        if handle.released:
            raise StorageError("page handle released twice")
        handle.released = True
        f = handle.frame
        with self._cond:
            if self._pins[f] <= 0:
                raise StorageError("unfix without matching fix")
            if mark_dirty and not self._bits[f] & _DIRTY:
                self._bits[f] |= _DIRTY
                self._dirty_n += 1
            self._bits[f] &= ~_LATCHED
            self._pins[f] -= 1
            if self._waiters:
                self._cond.notify_all()

    def _wait_locked(self) -> None:
        """Wait on the pool's condition for an unfix, counted so that an
        unfix with nobody waiting notifies no one."""
        self._waiters += 1
        try:
            self._cond.wait()
        finally:
            self._waiters -= 1

    # -- eviction internals ---------------------------------------------------

    def _clock_pick_locked(self):
        """One CLOCK sweep over a full pool: it lowers each unpinned nonzero
        usage count it passes and stops at the first unpinned frame whose
        count is 0.  Every unpinned frame reaches 0 within _MAX_USAGE
        passes, so (_MAX_USAGE + 1) passes find a victim if one exists.
        Returns ("victim", frame), clean or dirty, ("blocked", page_id)
        when only restore-gated dirty frames remain, or None when
        everything is pinned."""
        pins, bits, usage = self._pins, self._bits, self._usage
        blocked_page = None
        for _ in range((_MAX_USAGE + 1) * self.capacity):
            f = self._hand
            self._hand = (f + 1) % self.capacity
            if pins[f] > 0:
                continue
            if usage[f]:
                usage[f] -= 1
                continue
            if bits[f] & _DIRTY:
                page_id = self._pages[f].page_id
                if self._gated(page_id):
                    blocked_page = page_id
                    continue
            return "victim", f
        if blocked_page is not None:
            return "blocked", blocked_page
        return None

    def _write_back_locked(self, f: int, now: float) -> float:
        """Write the dirty page to the live volume.  The caller holds the
        condition and no fix holds the frame's latch.  A failed write leaves
        the frame dirty."""
        t = self.live_volume.write_page(self._pages[f], now)
        self._bits[f] &= ~_DIRTY
        self._dirty_n -= 1
        return t

    # -- explicit flushes -------------------------------------------------------

    def flush_page(self, page_id: int, now: float = 0.0,
                   timeout: float | None = 60.0) -> float:
        """Durably write one page if it is dirty in the pool, once no fix
        holds its latch.  Releases the pool's condition to wait on the restore
        gate when the replacement segment is not restored yet."""
        while True:
            with self._cond:
                f = self._frame_locked(page_id)
                if f < 0 or not self._bits[f] & _DIRTY:
                    return now
                if self._gated(page_id):
                    blocked = self._blocked(page_id, now)
                elif self._bits[f] & _LATCHED:
                    self._wait_locked()
                    continue
                else:
                    return self._write_back_locked(f, now)
            now = max(now, blocked.wait(timeout))

    def flush_all(self, now: float = 0.0) -> float:
        t = now
        with self._cond:
            dirty = [self._pages[f].page_id for f, b in enumerate(self._bits) if b & _DIRTY]
        for page_id in dirty:
            t = max(t, self.flush_page(page_id, t))
        return t

    def flush_some(self, limit: int, now: float = 0.0) -> tuple[int, float]:
        """Background page cleaning: write back up to limit dirty, unpinned
        pages under the pool's condition, skipping anything the restore gate
        is not ready for.  The cleaner's own hand resumes where the last call
        stopped and visits each filled frame at most once per call, so
        repeated small calls sweep the whole pool.  Never waits on a
        restore; returns (pages flushed, completion time)."""
        flushed = 0
        with self._cond:
            pins, bits, filled = self._pins, self._bits, self._filled
            f = self._clean_hand  # below filled once any frame is filled
            for _ in range(filled):
                if flushed >= limit:
                    break
                if (bits[f] & _DIRTY and not pins[f]
                        and not self._gated(self._pages[f].page_id)):
                    now = self._write_back_locked(f, now)
                    flushed += 1
                f = f + 1 if f + 1 < filled else 0
            self._clean_hand = f
        return flushed, now

    def dirty_count(self) -> int:
        return self._dirty_n

    # -- introspection ----------------------------------------------------------

    def _frame_locked(self, page_id: int) -> int:
        """The frame holding page_id, or -1, for any int."""
        if 0 <= page_id < len(self._frame_of):
            return self._frame_of[page_id]
        return -1

    def resident(self, page_id: int) -> bool:
        with self._cond:
            return self._frame_locked(page_id) >= 0

    def pin_count(self, page_id: int) -> int:
        with self._cond:
            f = self._frame_locked(page_id)
            return self._pins[f] if f >= 0 else 0
