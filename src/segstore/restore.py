"""Segment-granular media recovery driven by page demand.

One state machine coordinates all parties: a state byte per segment (not
restored / restoring / restored) and a queue of claimed segment ranges,
both kept by RestoreManager under one lock.  Exactly one requester wins
the transition into "restoring" and enqueues the segment in the same
critical section, everyone else waits on the segment's completion
signal, and "restored" is terminal.  Restoring one segment means: fetch
its backed-up pages, probe the archive for its records from the
backup's min_lsn to the failure LSN (the two transfers overlap), replay
them page by page, write the result to the replacement volume, and only
then mark the segment restored and wake waiters.  Later log is not read:
its pages stay dirty in the pool until their segment is restored.

Scheduling policies:

  ON_DEMAND    serve the request queue FIFO, one segment per request;
               the device is fully restored only if demand covers it.
  PREEMPTIVE   serve the queue first; while it is empty, sweep batches of
               contiguous segments that double in size (1, 2, 4, ... up
               to batch_cap), resetting to 1 whenever demand arrives.
               Latency first while demand is hot, bandwidth once it cools.
  SINGLE_PASS  sweep the whole device sequentially in batch_cap batches;
               requesters wait without claiming, since the sweep owns
               every segment it has yet to reach, so the queue holds the
               sweep's own retries and the segments re-requested behind
               it.  With one segment spanning the device this is classic
               offline restore, and it doubles as the bandwidth yardstick.

A failed batch keeps its claim: its segments stay "restoring" and their
waiters keep waiting.  After its first failure the batch goes back on
the queue as one range, so a transient fault costs one retry at the
same sequential bandwidth; after a later failure each segment goes back
alone, so a lasting fault stays with its own segment.  Once MAX_ATTEMPTS
attempts have failed a segment reverts to "not restored" and its waiters
see the error.  Either way step() returns normally, so every driver (the
scheduler thread, drain(), the benchmark engine) shares this one failure
path.  A later request (or, under PREEMPTIVE, a sweep that has not
reached it yet) may try the segment afresh; the single-pass sweep never
moves back, so behind its cursor only a request does.
"""

import enum
import itertools
import threading
from collections import deque

from .archive import ArchiveDirectory
from .backup import BackupImage
from .errors import RestoreError, StorageError
from .pages import Page
from .volume import Volume
from .wal import OP_SET

MAX_ATTEMPTS = 3  # failed attempts before a segment's waiters see the error


class Policy(enum.Enum):
    ON_DEMAND = "ondemand"
    PREEMPTIVE = "preemptive"
    SINGLE_PASS = "singlepass"


class SegmentState(enum.IntEnum):
    NOT_RESTORED = 0
    RESTORING = 1
    RESTORED = 2


class RestoreHandle:
    """Completion signal for one segment's restoration, shared by every
    waiter (the manager hands it out; a blocked fix returns it) until the
    segment is restored or its attempts run out."""

    __slots__ = ("segment_id", "event", "error", "done_at", "attempts")

    def __init__(self, segment_id: int):
        self.segment_id = segment_id
        self.event = threading.Event()
        self.error = None
        self.done_at = None
        self.attempts = 0

    @property
    def done(self) -> bool:
        return self.event.is_set() and self.error is None

    @property
    def ready(self) -> bool:
        """Signal fired, successfully or not."""
        return self.event.is_set()

    def wait(self, timeout: float | None = None) -> float:
        """Block until the segment is restored; returns the completion
        time.  Raises RestoreError if restoration failed for good."""
        if not self.event.wait(timeout):
            raise RestoreError(f"timed out waiting for segment {self.segment_id}")
        if self.error is not None:
            raise RestoreError(f"segment {self.segment_id} restore failed: {self.error}")
        return self.done_at


def replay(page: Page, records) -> Page:
    """Apply a page's log records in LSN order, gated by the page LSN so a
    replayed update is never applied twice and none is missed.  Only each
    key's last applied record decides its value, so the records are folded
    per key first and each surviving key is written to the page once."""
    lsn = page.page_lsn
    last = {}  # key -> its last record past the gate
    for rec in records:
        if rec.page_id != page.page_id:
            raise AssertionError(
                f"record for page {rec.page_id} replayed onto page {page.page_id}")
        if rec.lsn > lsn:
            last[rec.key] = rec
            lsn = rec.lsn
    for key, rec in last.items():
        if rec.op == OP_SET:
            page.set(key, rec.value)
        else:
            page.delete(key)
    page.page_lsn = lsn
    return page


class RestoreManager:
    """Owns the segment states, the demand queue, and the restoration
    pipeline.  One condition, _work, guards every segment's state and
    handle, the queue, the sweep cursor and the batch size; is_restored
    alone reads a state byte without it.

    The scheduler can run as a dedicated thread (start()) or be driven
    stepwise by a simulation loop (step()); both paths execute the same
    code.  request_segment is safe from any thread.
    """

    def __init__(self, backup: BackupImage, archive: ArchiveDirectory,
                 replacement: Volume, failure_lsn: int,
                 policy: Policy = Policy.PREEMPTIVE, batch_cap: int = 64):
        if backup.geometry != replacement.geometry:
            raise RestoreError("backup and replacement geometry differ")
        if batch_cap < 1:
            raise RestoreError("batch_cap must be at least 1")
        # Restore may only begin once the archive covers the failure point.
        if failure_lsn > 1 and archive.archived_upto < failure_lsn:
            raise RestoreError(
                f"archive caught up only to {archive.archived_upto}, "
                f"failure at {failure_lsn}")
        self.backup = backup
        self.archive = archive
        self.failure_lsn = failure_lsn
        self.replacement = replacement
        self.policy = policy
        self.batch_cap = batch_cap
        self.segment_count = replacement.geometry.segment_count
        self.restored_count = 0
        self._states = bytearray(self.segment_count)  # all NOT_RESTORED
        self._handles: dict[int, RestoreHandle] = {}
        self._queue: deque[tuple[int, int, float]] = deque()  # (first, count, t_enq)
        self._work = threading.Condition()
        self._cursor = 0
        self._batch = batch_cap if policy == Policy.SINGLE_PASS else 1
        self.bytes_restored = 0
        self.demand_requests = 0
        self.attempt_count = {}
        self.success_count = {}
        self.on_restore = None  # callback(t_start, t_done, first, count, nbytes, qdepth)
        self._thread = None
        self._stopped = threading.Event()

    # -- segment states ------------------------------------------------------

    def _check(self, seg: int) -> None:
        if not 0 <= seg < self.segment_count:
            raise RestoreError(f"segment {seg} out of range")

    def _handle_locked(self, seg: int) -> RestoreHandle:
        handle = self._handles.get(seg)
        if handle is None:
            handle = self._handles[seg] = RestoreHandle(seg)
        return handle

    def _claim_locked(self, seg: int) -> RestoreHandle:
        """NOT_RESTORED -> RESTORING.  A segment whose attempts ran out
        starts over with a fresh handle; its old waiters keep the error."""
        handle = self._handle_locked(seg)
        if handle.error is not None:
            handle = self._handles[seg] = RestoreHandle(seg)
        self._states[seg] = SegmentState.RESTORING
        return handle

    def state(self, seg: int) -> SegmentState:
        self._check(seg)
        return SegmentState(self._states[seg])

    def is_restored(self, seg: int) -> bool:
        # No lock: the buffer pool asks on every miss, and RESTORED is terminal.
        self._check(seg)
        return self._states[seg] == SegmentState.RESTORED

    def handle(self, seg: int) -> RestoreHandle:
        self._check(seg)
        with self._work:
            return self._handle_locked(seg)

    @property
    def complete(self) -> bool:
        return self.restored_count >= self.segment_count

    # -- demand side ---------------------------------------------------------

    def request_segment(self, seg: int, now: float = 0.0) -> RestoreHandle:
        """The handle to wait on for segment seg.  The first request for a
        NOT_RESTORED segment claims it and queues it, in one critical
        section; under SINGLE_PASS the sweep owns every segment at or after
        its cursor, so a request there only waits."""
        self._check(seg)
        single_pass = self.policy == Policy.SINGLE_PASS
        with self._work:
            if (self._states[seg] != SegmentState.NOT_RESTORED
                    or single_pass and seg >= self._cursor):
                return self._handle_locked(seg)
            handle = self._claim_locked(seg)
            self._queue.append((seg, 1, now))
            self.demand_requests += 1
            if not single_pass:
                self._batch = 1
            self._work.notify_all()
            return handle

    def queue_depth(self) -> int:
        """Segments queued, counting every segment of a queued range."""
        with self._work:
            return sum(count for _, count, _ in self._queue)

    def next_queue_time(self) -> float | None:
        with self._work:
            return self._queue[0][2] if self._queue else None

    # -- scheduler ------------------------------------------------------------

    def _has_work_locked(self) -> bool:
        return bool(self._queue) or (
            self.policy != Policy.ON_DEMAND
            and self._states.find(SegmentState.NOT_RESTORED, self._cursor) >= 0)

    def has_pending_work(self) -> bool:
        """True when step() has work: a queued segment, or for the sweep
        policies a NOT_RESTORED segment at or after the sweep cursor.  A
        segment that used up its attempts behind the cursor is not work
        until a request queues it: the sweep never moves back."""
        if self.complete:
            return False
        with self._work:
            return self._has_work_locked()

    def step(self, now: float = 0.0) -> tuple[bool, float]:
        """Execute one scheduler decision: the queue head (a demanded
        segment or a retried range, already claimed), or one sweep batch.
        Returns (did_work, completion_time); a failed batch counts as work
        done at now (see _restore_batch)."""
        first = count = qdepth = 0
        with self._work:
            if self._queue:
                qdepth = self.queue_depth()
                first, count, t_enq = self._queue.popleft()
                now = max(now, t_enq)
            elif self.policy != Policy.ON_DEMAND:
                first = self._states.find(SegmentState.NOT_RESTORED, self._cursor)
                if first < 0:
                    self._cursor = self.segment_count
                else:
                    end = first
                    while (end < self.segment_count and end - first < self._batch
                           and self._states[end] == SegmentState.NOT_RESTORED):
                        self._claim_locked(end)
                        end += 1
                    count, self._cursor = end - first, end
                    self._batch = min(self._batch * 2, self.batch_cap)
        if not count:
            return False, now
        return True, self._restore_batch(first, count, now, qdepth)

    def drain(self, now: float = 0.0) -> float:
        """Run the scheduler inline until nothing is left to do."""
        while self.has_pending_work():
            _, now = self.step(now)
        return now

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
        while not self._stopped.is_set() and not self.complete:
            if not self.step()[0]:
                # Every producer of work (request_segment, a failed
                # batch's re-queue, stop) notifies under this lock.
                with self._work:
                    self._work.wait_for(
                        lambda: self._stopped.is_set() or self._has_work_locked())

    # -- restoration pipeline ----------------------------------------------------

    def _restore_batch(self, first: int, count: int, now: float, qdepth: int) -> float:
        """Restore the claimed segments [first, first + count); returns the
        completion time.  If a transfer fails, each segment counts a failed
        attempt and the batch returns now: the range goes back on the queue
        whole after its first failure and segment by segment after a later
        one, keeping its claim, and a segment with MAX_ATTEMPTS failures
        reverts to NOT_RESTORED and releases its waiters with the error."""
        geo = self.replacement.geometry
        segs = range(first, first + count)
        with self._work:
            for seg in segs:
                if self._states[seg] != SegmentState.RESTORING:
                    raise RestoreError(f"segment {seg} restore begun without restoring state")
        first_page, _ = geo.segment_span(first)
        _, end_page = geo.segment_span(first + count - 1)
        for seg in segs:
            self.attempt_count[seg] = self.attempt_count.get(seg, 0) + 1
        try:
            # Backup fetch and archive probe overlap; replay starts when
            # both transfers are in.
            pages, t_fetch = self.backup.fetch_page_span(first_page, end_page, now)
            probe = self.archive.probe(first_page, end_page - 1, self.backup.min_lsn,
                                       now, end_lsn=self.failure_lsn)
            t_ready = max(t_fetch, probe.done_at)
            for page_id, records in itertools.groupby(probe.records, key=lambda r: r.page_id):
                replay(pages[page_id - first_page], records)
            t_done = self.replacement.write_page_span(first_page, pages, t_ready)
        except StorageError as exc:
            with self._work:
                handles = [self._handle_locked(seg) for seg in segs]
                for handle in handles:
                    handle.attempts += 1
                # The segments of a range share their attempt count.
                if handles[0].attempts == 1:
                    self._queue.append((first, count, now))
                else:
                    for seg, handle in zip(segs, handles):
                        if handle.attempts < MAX_ATTEMPTS:
                            self._queue.append((seg, 1, now))
                        else:
                            self._states[seg] = SegmentState.NOT_RESTORED
                            handle.error = exc
                            handle.event.set()
                self._work.notify_all()
            return now
        nbytes = (end_page - first_page) * geo.page_size
        self.bytes_restored += nbytes
        with self._work:
            for seg in segs:
                self._states[seg] = SegmentState.RESTORED
                self.restored_count += 1
                self.success_count[seg] = self.success_count.get(seg, 0) + 1
                handle = self._handle_locked(seg)
                handle.done_at = t_done
                handle.event.set()
        if self.on_restore is not None:
            self.on_restore(now, t_done, first, count, nbytes, qdepth)
        return t_done
