"""Segment-granular media recovery driven by page demand.

A three-state bitmap (not restored / restoring / restored) coordinates
all parties: exactly one requester wins the atomic transition into
"restoring" and enqueues the segment, everyone else waits on the
segment's completion signal, and "restored" is terminal.  Restoring one
segment means: fetch its backed-up pages, probe the archive for its
records from the backup's min_lsn on (the two transfers overlap), replay
them page by page, write the result to the replacement volume, and only
then flip the bitmap and wake waiters.

Scheduling policies:

  ON_DEMAND    serve the request queue FIFO, one segment per request;
               the device is fully restored only if demand covers it.
  PREEMPTIVE   serve the queue first; while it is empty, sweep batches of
               contiguous segments that double in size (1, 2, 4, ... up
               to batch_cap), resetting to 1 whenever demand arrives.
               Latency first while demand is hot, bandwidth once it cools.
  SINGLE_PASS  ignore the queue and sweep the whole device sequentially
               in maximal batches; requesters wait on the bitmap without
               claiming, since the sweep owns every segment.  With one
               segment spanning the device this is classic offline
               restore, and it doubles as the bandwidth yardstick.

A failed segment restore reverts the segment to "not restored" and
re-enqueues it; waiters keep waiting across retries and only see an
error once the attempt budget (default 3) is exhausted.  A later request
may try the segment afresh.
"""

import enum
import itertools
import threading
from collections import deque
from dataclasses import dataclass

from .archive import ArchiveDirectory
from .backup import BackupImage
from .errors import RestoreError, StorageError
from .pages import Page
from .volume import Volume
from .wal import NULL_LSN, WriteAheadLog


class Policy(enum.Enum):
    ON_DEMAND = "ondemand"
    PREEMPTIVE = "preemptive"
    SINGLE_PASS = "singlepass"


class SegmentState(enum.IntEnum):
    NOT_RESTORED = 0
    RESTORING = 1
    RESTORED = 2


class RestoreHandle:
    """Completion signal for one segment's restoration."""

    __slots__ = ("segment_id", "_entry")

    def __init__(self, segment_id: int, entry: "_SegmentEntry"):
        self.segment_id = segment_id
        self._entry = entry

    @property
    def done(self) -> bool:
        return self._entry.event.is_set() and self._entry.error is None

    @property
    def ready(self) -> bool:
        """Signal fired, successfully or not."""
        return self._entry.event.is_set()

    @property
    def error(self):
        return self._entry.error

    @property
    def done_at(self) -> float | None:
        return self._entry.done_at

    def wait(self, timeout: float | None = None) -> float:
        """Block until the segment is restored; returns the completion
        time.  Raises RestoreError if restoration failed for good."""
        if not self._entry.event.wait(timeout):
            raise RestoreError(f"timed out waiting for segment {self.segment_id}")
        if self._entry.error is not None:
            raise RestoreError(
                f"segment {self.segment_id} restore failed: {self._entry.error}")
        return self._entry.done_at


class _SegmentEntry:
    __slots__ = ("event", "error", "done_at", "attempts")

    def __init__(self):
        self.event = threading.Event()
        self.error = None
        self.done_at = None
        self.attempts = 0


class SegmentBitmap:
    """Per-segment restore state with atomic transitions and waiter
    signaling.  Initialized all zeros (nothing restored)."""

    def __init__(self, total: int):
        self.total = total
        self._states = bytearray(total)
        self._entries: dict[int, _SegmentEntry] = {}
        self._lock = threading.Lock()
        self.restored_count = 0

    def _entry_locked(self, seg: int) -> _SegmentEntry:
        entry = self._entries.get(seg)
        if entry is None:
            entry = self._entries[seg] = _SegmentEntry()
        return entry

    def _check(self, seg: int) -> None:
        if not 0 <= seg < self.total:
            raise RestoreError(f"segment {seg} out of range")

    def state(self, seg: int) -> SegmentState:
        self._check(seg)
        return SegmentState(self._states[seg])

    def is_restored(self, seg: int) -> bool:
        self._check(seg)
        return self._states[seg] == SegmentState.RESTORED

    def handle(self, seg: int) -> RestoreHandle:
        with self._lock:
            return RestoreHandle(seg, self._entry_locked(seg))

    def try_begin(self, seg: int) -> tuple[bool, RestoreHandle]:
        """Atomic NOT_RESTORED -> RESTORING; returns (won, handle)."""
        self._check(seg)
        with self._lock:
            entry = self._entry_locked(seg)
            if self._states[seg] == SegmentState.NOT_RESTORED:
                if entry.error is not None:
                    # fresh attempt after a fail-fast: new incarnation
                    entry = self._entries[seg] = _SegmentEntry()
                self._states[seg] = SegmentState.RESTORING
                return True, RestoreHandle(seg, entry)
            return False, RestoreHandle(seg, entry)

    def claim_contiguous(self, cursor: int, limit: int) -> tuple[list[int], int]:
        """Claim up to limit contiguous NOT_RESTORED segments starting at or
        after cursor; returns (claimed segments, new cursor)."""
        with self._lock:
            while cursor < self.total and self._states[cursor] != SegmentState.NOT_RESTORED:
                cursor += 1
            segs = []
            while (cursor < self.total and len(segs) < limit
                   and self._states[cursor] == SegmentState.NOT_RESTORED):
                entry = self._entry_locked(cursor)
                if entry.error is not None:
                    self._entries[cursor] = _SegmentEntry()
                self._states[cursor] = SegmentState.RESTORING
                segs.append(cursor)
                cursor += 1
            return segs, cursor

    def mark_restored(self, seg: int, done_at: float) -> None:
        with self._lock:
            if self._states[seg] != SegmentState.RESTORING:
                raise RestoreError(f"segment {seg} restored without restoring state")
            self._states[seg] = SegmentState.RESTORED
            self.restored_count += 1
            entry = self._entry_locked(seg)
            entry.done_at = done_at
            entry.error = None
            entry.event.set()

    def record_failure(self, seg: int, exc: Exception, max_attempts: int) -> bool:
        """Revert RESTORING -> NOT_RESTORED.  Returns True if the segment
        should be retried, False once the attempt budget is used up (then
        current waiters are released with the error)."""
        with self._lock:
            if self._states[seg] != SegmentState.RESTORING:
                raise RestoreError(f"segment {seg} failed without restoring state")
            self._states[seg] = SegmentState.NOT_RESTORED
            entry = self._entry_locked(seg)
            entry.attempts += 1
            if entry.attempts < max_attempts:
                return True
            entry.error = exc
            entry.event.set()
            return False

    def has_not_restored(self) -> bool:
        with self._lock:
            return self.restored_count < self.total and \
                any(s == SegmentState.NOT_RESTORED for s in self._states)

    @property
    def complete(self) -> bool:
        return self.restored_count >= self.total


@dataclass
class RestoreContext:
    backup: BackupImage
    archive: ArchiveDirectory
    replacement: Volume
    failure_lsn: int
    policy: Policy = Policy.PREEMPTIVE
    batch_cap: int = 64
    max_attempts: int = 3
    buffer_pool: object = None

    def validate(self) -> None:
        if self.backup.geometry != self.replacement.geometry:
            raise RestoreError("backup and replacement geometry differ")
        if self.batch_cap < 1:
            raise RestoreError("batch_cap must be at least 1")
        # Restore may only begin once the archive covers the failure point.
        if self.failure_lsn > 1 and self.archive.archived_upto < self.failure_lsn:
            raise RestoreError(
                f"archive caught up only to {self.archive.archived_upto}, "
                f"failure at {self.failure_lsn}")
        if self.buffer_pool is not None and not self.buffer_pool.failed:
            raise RestoreError("database device has not failed")


def replay(page: Page, records) -> Page:
    """Apply a page's log records in LSN order, gated by the page LSN so a
    replayed update is never applied twice and none is missed."""
    for rec in records:
        if rec.page_id != page.page_id:
            raise AssertionError(
                f"record for page {rec.page_id} replayed onto page {page.page_id}")
        if rec.lsn <= page.page_lsn:
            continue
        if rec.op == 0:
            page.records[rec.key] = rec.value
        else:
            page.records.pop(rec.key, None)
        page.page_lsn = rec.lsn
    return page


def single_page_repair(wal: WriteAheadLog, backup: BackupImage, page_id: int,
                       now: float = 0.0) -> tuple[Page, float]:
    """Rebuild one page from its backup image and its backward log-record
    chain, without touching any restore bitmap.

    Only usable while the page's history since the backup is still in the
    log: a chain that crosses the truncation point raises BrokenChainError.
    """
    page, t = backup.read_page(page_id, now)
    head = wal.head_lsn(page_id)
    chain = []
    for rec in wal.page_chain(page_id, head if head != NULL_LSN else None):
        if rec.lsn < backup.min_lsn:
            break
        chain.append(rec)
        t = wal.charge_chain_read(rec.encoded_size, t)
    replay(page, reversed(chain))
    return page, t


class RestoreManager:
    """Owns the bitmap, the demand queue, and the restoration pipeline.

    The scheduler can run as a dedicated thread (start()) or be driven
    stepwise by a simulation loop (step()); both paths execute the same
    code.  request_segment is safe from any thread.
    """

    def __init__(self, context: RestoreContext):
        context.validate()
        self.context = context
        geo = context.replacement.geometry
        self.bitmap = SegmentBitmap(geo.segment_count)
        self._queue: deque[tuple[int, float]] = deque()
        self._qlock = threading.Lock()
        self._work = threading.Condition(self._qlock)
        self._cursor = 0
        self._batch = 1
        self.bytes_restored = 0
        self.demand_requests = 0
        self.attempt_count = {}
        self.success_count = {}
        self.on_restore = None  # callback(t_start, t_done, first, count, nbytes, qdepth)
        self._thread = None
        self._stopped = threading.Event()
        if context.buffer_pool is not None:
            context.buffer_pool.set_restore_gate(self)

    # -- demand side ---------------------------------------------------------

    def is_restored(self, seg: int) -> bool:
        return self.bitmap.is_restored(seg)

    def request_segment(self, seg: int, now: float = 0.0) -> RestoreHandle:
        state = self.bitmap.state(seg)
        if state == SegmentState.RESTORED:
            return self.bitmap.handle(seg)
        if self.context.policy == Policy.SINGLE_PASS:
            # The sweep owns every segment; just wait on its signal.
            return self.bitmap.handle(seg)
        won, handle = self.bitmap.try_begin(seg)
        if won:
            with self._work:
                self._queue.append((seg, now))
                self.demand_requests += 1
                self._batch = 1
                self._work.notify_all()
        return handle

    def queue_depth(self) -> int:
        with self._qlock:
            return len(self._queue)

    def next_queue_time(self) -> float | None:
        with self._qlock:
            return self._queue[0][1] if self._queue else None

    # -- scheduler ------------------------------------------------------------

    def has_pending_work(self) -> bool:
        if self.bitmap.complete:
            return False
        with self._qlock:
            if self._queue:
                return True
        if self.context.policy == Policy.ON_DEMAND:
            return False
        return self.bitmap.has_not_restored()

    @property
    def complete(self) -> bool:
        return self.bitmap.complete

    def step(self, now: float = 0.0) -> tuple[bool, float]:
        """Execute one scheduler decision: one demanded segment, or one
        sweep batch.  Returns (did_work, completion_time)."""
        policy = self.context.policy
        segs = []
        qdepth = 0
        if policy != Policy.SINGLE_PASS:
            with self._qlock:
                while self._queue:
                    seg, t_enq = self._queue.popleft()
                    state = self.bitmap.state(seg)
                    if state == SegmentState.RESTORED:
                        continue  # satisfied while queued (duplicate retry entry)
                    if state == SegmentState.NOT_RESTORED:
                        # re-queued after a failed attempt: claim it again
                        won, _ = self.bitmap.try_begin(seg)
                        if not won:
                            continue
                    qdepth = len(self._queue) + 1
                    segs = [seg]
                    now = max(now, t_enq)
                    break
        if not segs and policy != Policy.ON_DEMAND:
            limit = self.context.batch_cap if policy == Policy.SINGLE_PASS else self._batch
            segs, self._cursor = self.bitmap.claim_contiguous(self._cursor, limit)
            if segs and policy == Policy.PREEMPTIVE:
                self._batch = min(self._batch * 2, self.context.batch_cap)
        if not segs:
            return False, now
        t = self._restore_batch(segs[0], len(segs), now, qdepth)
        return True, t

    def drain(self, now: float = 0.0) -> float:
        """Run the scheduler inline until nothing is left to do."""
        t = now
        while self.has_pending_work():
            worked, t = self.step(t)
            if not worked:
                break
        return t

    def start(self) -> None:
        """Dedicated scheduler thread; stops when restore completes or on
        stop()."""
        if self._thread is not None:
            return
        self._stopped.clear()
        self._thread = threading.Thread(target=self._thread_main,
                                        name="restore-scheduler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stopped.set()
        with self._work:
            self._work.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _thread_main(self) -> None:
        while not self._stopped.is_set() and not self.bitmap.complete:
            try:
                worked, _ = self.step()
            except StorageError:
                continue  # failure already recorded against the segments
            if not worked:
                with self._work:
                    if not self._queue and not self._stopped.is_set():
                        self._work.wait(0.01)

    # -- restoration pipeline ----------------------------------------------------

    def _restore_batch(self, first: int, count: int, now: float, qdepth: int) -> float:
        geo = self.context.replacement.geometry
        segs = list(range(first, first + count))
        first_page, _ = geo.segment_span(first)
        _, end_page = geo.segment_span(first + count - 1)
        try:
            for seg in segs:
                self.attempt_count[seg] = self.attempt_count.get(seg, 0) + 1
            # Backup fetch and archive probe overlap; replay starts when
            # both transfers are in.
            pages, t_fetch = self.context.backup.fetch_page_span(first_page, end_page, now)
            probe = self.context.archive.probe(first_page, end_page - 1,
                                               self.context.backup.min_lsn, now)
            t_ready = max(t_fetch, probe.done_at)
            for page_id, records in itertools.groupby(probe.records, key=lambda r: r.page_id):
                replay(pages[page_id - first_page], records)
            t_done = self.context.replacement.write_page_span(first_page, pages, t_ready)
        except StorageError as exc:
            retry = []
            for seg in segs:
                if self.bitmap.record_failure(seg, exc, self.context.max_attempts):
                    retry.append(seg)
            if retry:
                with self._work:
                    for seg in retry:
                        self._queue.append((seg, now))
                    self._work.notify_all()
            raise
        nbytes = (end_page - first_page) * geo.page_size
        self.bytes_restored += nbytes
        for seg in segs:
            self.success_count[seg] = self.success_count.get(seg, 0) + 1
            self.bitmap.mark_restored(seg, t_done)
        if self.on_restore is not None:
            self.on_restore(now, t_done, first, count, nbytes, qdepth)
        return t_done

    # -- progress ------------------------------------------------------------------

    def status(self) -> dict:
        return {
            "restored_count": self.bitmap.restored_count,
            "total": self.bitmap.total,
            "bytes_restored": self.bytes_restored,
            "queue_depth": self.queue_depth(),
        }


def begin_restore(context: RestoreContext, start_thread: bool = True) -> RestoreManager:
    """Initialize the restore manager: bitmap zeroed, buffer-pool fix path
    rerouted through request_segment, scheduler running (threaded unless the
    caller drives step() itself)."""
    manager = RestoreManager(context)
    if start_thread:
        manager.start()
    return manager
