"""Deterministic benchmark engine with mid-run media-failure injection.

Workers, the log archiver, and the restore scheduler are simulated actors
with private virtual clocks.  The engine always advances the actor whose
clock is furthest behind (ties broken by actor id), so a run is a pure
function of its configuration and seed, while per-device FCFS busy-until
accounting still shapes the timeline the way real contention would: the
log device serializes its writes, and an append that queues behind a log
write that has not started joins it (group commit), restore transfers
queue behind each other, a buffer-pool miss waits for its own page read
while its dirty victim's write queues behind that read on the database
device (one transfer that also carries the victim's cold dirty
neighbours in its segment, so a run of evictions pays one fixed charge
instead of one a page), the page cleaner issues one write at a time
(each write of a round of up to cleaner_batch pages starts when the one
before it completes), so a miss queues behind at most one cleaner
write, and a transaction that touches a not-yet-restored segment parks
until the scheduler's completion signal, then resumes through the same
min-clock pick, at the later of its clock and the segment's completion
time.
A worker steps a whole transaction at a time, so only other workers'
appends can join the log write that one of its appends queues for.

LSNs follow call order, so each transaction's first append queues
behind the previous transaction's last append, and anything that
transaction waits for between its appends delays the log writes of
every transaction behind it.  A transaction therefore reads its pages
before its first append: after its think time it prefetches every page
it updates that is not resident, all reads issued at that one time, and
its clock moves to the latest read completion; its fixes are then hits.
The page set is known up front, as in informed prefetching (Patterson
et al., SOSP 1995), and, as in Calvin (Thomson et al., SIGMOD 2012), a
transaction's reads are done before it takes its place in the log.
After the failure the prefetch requests every missing segment at once,
and the transaction parks at the first fix that needs one.

The archiver steps at its own clock and reads only log durable by then;
it reads from the WAL's log buffer, so its reads cost the log device
nothing and leave the append group open.

Time is virtual microseconds end to end; wall mode paces the identical
schedule against the real clock for demo runs.  The same storage, WAL,
archive, and restore objects also run under real threads - that side is
exercised by the concurrency tests - but benchmark numbers come from this
engine so they are reproducible.
"""

import contextlib
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import replace

from .archive import ArchiveDirectory, LogArchiver
from .backup import BackupImage
from .bufferpool import Blocked, BufferPool
from .device import DeviceRole, LatencyModel
from .errors import StorageError
from .metrics import MetricsReport, emit_csv
from .pages import Page, page_capacity
from .restore import Policy, RestoreManager
from .volume import Geometry, Volume
from .wal import OP_SET, WriteAheadLog
from .workload import WorkloadConfig, WorkerStream

_US = 1_000_000.0

ARCHIVER_BUDGET = 2048         # WAL records the archiver reads per step
ARCHIVER_INTERVAL_US = 2000.0  # archiver idle time between steps
LOG_LATENCY = (20.0, 0.002)    # log device: fixed us, per-byte us


class WallClock:
    """Real time: one simulated microsecond takes one real microsecond."""

    def __init__(self):
        self._origin = time.monotonic()

    def sleep_until(self, t_us: float) -> None:
        delta = t_us / _US - (time.monotonic() - self._origin)
        if delta > 0:
            time.sleep(delta)


class _Worker:
    __slots__ = ("worker_id", "stream", "clock", "gen", "parked_on",
                 "txns_total", "txns_phase")

    def __init__(self, worker_id: int, stream: WorkerStream):
        self.worker_id = worker_id
        self.stream = stream
        self.clock = 0.0
        self.gen = None
        self.parked_on = None
        self.txns_total = 0
        self.txns_phase = 0


class BenchEngine:
    """One benchmark run over a scratch directory."""

    def __init__(self, config: WorkloadConfig, workdir: str,
                 finish_restore: bool = False):
        config.validate()
        self.config = config
        self.workdir = workdir
        self.finish_restore = finish_restore
        self.pacer = WallClock() if config.wall_clock else None

        geo = Geometry(config.page_size, config.page_count, config.pages_per_segment)
        os.makedirs(workdir, exist_ok=True)
        db_latency = LatencyModel(*config.db_latency)
        # Everything opened here is closed by close(), or at once if a later
        # step of the set-up raises.
        with contextlib.ExitStack() as opened:
            own = lambda obj: opened.enter_context(contextlib.closing(obj))
            self.volume = own(Volume.create(os.path.join(workdir, "volume.db"), geo,
                                            DeviceRole.DATABASE, db_latency))
            # The replacement starts blank; restore writes each of its
            # segments before the restore gate lets a page be read.
            self.replacement = own(Volume.blank(os.path.join(workdir, "replacement.db"),
                                                geo, db_latency))
            self.wal = own(WriteAheadLog(os.path.join(workdir, "wal.log"),
                                         LatencyModel(*LOG_LATENCY)))
            self.archive_dir = ArchiveDirectory(os.path.join(workdir, "archive"),
                                                LatencyModel(*config.archive_latency))
            self.archiver = LogArchiver(self.wal, self.archive_dir,
                                        run_size_limit=config.run_size_limit,
                                        mode=config.archive_mode)
            self.pool = BufferPool(self.volume, config.pool_pages)
            self.backup = own(BackupImage.create(workdir, self.volume, self.wal,
                                                 LatencyModel(*config.backup_latency))[0])
            self.manager = None
            self.failure_lsn = None
            self.report = MetricsReport(duration_s=config.duration_s,
                                        failure_time_s=config.failure_time_s)
            self.pool.on_page_read = self.report.record_page_read
            self.workers = [_Worker(i, WorkerStream(config, i))
                            for i in range(config.worker_threads)]
            for w in self.workers:
                w.gen = self._txn_gen(w)
            self._opened = opened.pop_all()
        self._arch_clock = 0.0
        self._arch_next = 0.0
        self._cleaner_next = 0.0
        self._cleaner_round = 0  # pages written in the current cleaner round
        self._sched_clock = 0.0
        self._t_fail_us = (config.failure_time_s * _US
                           if config.failure_time_s is not None else None)
        self._post_failure = False
        self._latency_ok = True

    # -- the worker coroutine ------------------------------------------------

    def _txn_gen(self, w: _Worker):
        tick = self.config
        capacity = page_capacity(tick.page_size)
        while True:
            ops = w.stream.next_txn()
            t_start = w.clock
            w.clock += tick.txn_think_us
            # Read every missing page before the first append, all issued
            # now, so the reads do not sit between this transaction's
            # appends; a page whose segment is not restored is requested
            # here and waited for at its fix.
            issue = w.clock
            for page_id in dict.fromkeys(op[0] for op in ops):
                t = self.pool.prefetch_page(page_id, now=issue)
                if not isinstance(t, Blocked):
                    self._latency_ok &= issue <= t
                    w.clock = max(w.clock, t)
            for page_id, op, key, value in ops:
                w.clock += tick.op_think_us
                out = self.pool.try_fix_page(page_id, now=w.clock)
                while isinstance(out, Blocked):
                    w.clock = yield out  # the pick resumes it at max(clock, done_at)
                    out = self.pool.try_fix_page(page_id, now=w.clock)
                handle, t_fix = out
                lsn, t_log = self.wal.append(page_id, op, key, value, now=t_fix)
                # The clock moves to each completion the worker waits for,
                # so a completion before its issue time would run it back.
                self._latency_ok &= w.clock <= t_fix <= t_log
                w.clock = t_log
                page = handle.page
                if op == OP_SET:
                    page.set(key, value, capacity)
                else:
                    page.delete(key)
                page.page_lsn = lsn
                self.pool.unfix_page(handle, mark_dirty=True)
            self.report.record_txn(w.worker_id * 10 ** 9 + w.txns_total,
                                   w.clock, w.clock - t_start, self._post_failure)
            w.txns_total += 1
            w.txns_phase += 1
            yield None

    # -- actor scheduling -------------------------------------------------------

    def _archiver_step(self, now: float) -> None:
        _, t = self.archiver.archive_step(ARCHIVER_BUDGET, now)
        self._arch_clock = t
        self._arch_next = t + ARCHIVER_INTERVAL_US

    def _cleaner_step(self, now: float) -> None:
        """Write one dirty page.  Mid-round the cleaner is ready again when
        that write completes; a round ends after cleaner_batch pages or a
        step that finds nothing to clean, and the next starts
        cleaner_interval_us later."""
        n, t = self.pool.flush_some(1, now)
        self._cleaner_round += n
        if n and self._cleaner_round < self.config.cleaner_batch:
            self._cleaner_next = t
        else:
            self._cleaner_round = 0
            self._cleaner_next = t + self.config.cleaner_interval_us

    def _scheduler_step(self, now: float) -> None:
        worked, t = self.manager.step(now)
        if worked:
            self._sched_clock = t

    def _run_phase(self, worker_active) -> None:
        """Advance actors until every worker has either left the phase (per
        the predicate) or finished; the archiver and scheduler interleave by
        virtual time while any worker still has business here.

        Each actor offers (ready time, rank, actor).  A worker's rank is its
        id; the services rank -3 (cleaner), -2 (scheduler) and -1
        (archiver), so at equal times services go first, in that order.  A
        parked worker offers max(clock, done_at) once its restore handle
        fires, is sent that time when picked, and finishes its transaction
        even after leaving the phase."""
        while True:
            actors = []
            for w in self.workers:
                handle = w.parked_on
                if handle is None:
                    if worker_active(w):
                        actors.append((w.clock, w.worker_id, w))
                elif handle.ready:
                    if handle.error is not None:
                        raise StorageError(f"worker {w.worker_id} saw restore failure: "
                                           f"{handle.error}")
                    actors.append((max(w.clock, handle.done_at), w.worker_id, w))
            if not actors and all(w.parked_on is None for w in self.workers):
                return  # archiver/scheduler lag is picked up by later phases
            if self.archiver.consumed_lsn < self.wal.end_lsn():
                actors.append((max(self._arch_clock, self._arch_next), -1, self._archiver_step))
            if self.manager is not None and self.manager.has_pending_work():
                head = self.manager.next_queue_time()
                ready = self._sched_clock if head is None else max(self._sched_clock, head)
                actors.append((ready, -2, self._scheduler_step))
            if self.config.cleaner_interval_us > 0 and self.pool.dirty_count():
                actors.append((self._cleaner_next, -3, self._cleaner_step))
            if not actors:
                raise StorageError("workers parked with no restore work pending")
            t, rank, actor = min(actors, key=lambda a: (a[0], a[1]))
            if self.pacer is not None:
                self.pacer.sleep_until(t)
            if rank < 0:
                actor(t)
            elif actor.parked_on is None:
                actor.parked_on = next(actor.gen)
            else:
                actor.parked_on = actor.gen.send(t)

    # -- failure injection ---------------------------------------------------------

    def _inject_failure(self) -> None:
        self.pool.fail_device()
        self.failure_lsn = self.wal.end_lsn()
        t_catch = self.archiver.archive_up_to(self.failure_lsn,
                                              max(self._arch_clock, self._t_fail_us))
        self._arch_clock = t_catch = self.archiver.run_maintenance(t_catch)
        self.manager = RestoreManager(self.backup, self.archive_dir, self.replacement,
                                      self.failure_lsn, policy=self.config.policy,
                                      batch_cap=self.config.batch_cap)
        self.pool.set_restore_gate(self.manager)
        self.manager.on_restore = self.report.record_restore
        self._sched_clock = max(t_catch, self._t_fail_us)
        self.report.restore_begin_us = self._sched_clock

    # -- run -------------------------------------------------------------------------

    def run(self) -> MetricsReport:
        cfg = self.config
        count_mode = cfg.txns_per_worker is not None
        failing = cfg.failure_time_s is not None
        duration_us = cfg.duration_s * _US
        if count_mode:
            pre_budget, post_budget = cfg.txns_per_worker
            if not failing:
                pre_budget += post_budget  # shadow runs do the same total work
            phase_a = lambda w: w.txns_phase < pre_budget
        elif failing:
            fail_at = self._t_fail_us
            phase_a = lambda w: w.clock < fail_at
        else:
            phase_a = lambda w: w.clock < duration_us
        self._run_phase(phase_a)

        if failing:
            for w in self.workers:
                w.txns_phase = 0
            if count_mode:
                # failure lands at the quiesced boundary
                self._t_fail_us = max((w.clock for w in self.workers), default=0.0)
            self._inject_failure()
            self._post_failure = True
            if count_mode:
                phase_b = lambda w: w.txns_phase < post_budget
            else:
                phase_b = lambda w: w.clock < duration_us
            self._run_phase(phase_b)

        if self.manager is not None and self.finish_restore:
            if cfg.policy == Policy.ON_DEMAND:
                for seg in range(self.manager.segment_count):
                    self.manager.request_segment(seg, self._sched_clock)
            t = self.manager.drain(self._sched_clock)
            self._sched_clock = t
        if self.manager is not None and self.manager.complete:
            self.report.restore_end_us = max(
                (e[1] for e in self.report.restore_events), default=self._sched_clock)

        self._finalize()
        return self.report

    def _finalize(self) -> None:
        end_us = max([w.clock for w in self.workers]
                     + [self._arch_clock, self._sched_clock, 1.0])
        if self.config.txns_per_worker is not None:
            self.report.duration_s = int(end_us // _US) + 1
        self.report.mark_invariant("latency_accounting", self._latency_ok)
        if self.failure_lsn is not None:
            self.report.mark_invariant("failed_device_untouched",
                                       self.volume.device.refused == 0)
        if self.manager is not None and self.manager.complete:
            geo = self.replacement.geometry
            self.report.mark_invariant(
                "restored_bytes_total",
                self.manager.bytes_restored == geo.page_count * geo.page_size)
            once = all(n == 1 for n in self.manager.success_count.values())
            self.report.mark_invariant("segments_restored_once", once)

    def flush_all(self) -> None:
        """Push every dirty page to the live volume (used by verification
        runs after restore completes; never blocks then)."""
        end = max(w.clock for w in self.workers)
        self.pool.flush_all(end)

    def final_volume(self) -> Volume:
        return self.pool.live_volume

    def close(self) -> None:
        # A worker's suspended generator frame holds the engine; closing
        # it lets reference counting free a closed engine.
        for w in self.workers:
            w.gen.close()
        self._opened.close()


# -- oracles ---------------------------------------------------------------------

def oracle_volume_bytes(backup: BackupImage, wal: WriteAheadLog) -> bytes:
    """Brute-force media recovery: load the backup image and replay the
    whole log in LSN order from the backup's min_lsn.  Returns the full
    volume image those semantics produce.  Kept deliberately independent
    of the probe/merge/replay restore path."""
    geo = backup.geometry
    pages = {}
    with open(backup.path, "rb") as f:
        f.seek(geo.page_offset(0))
        for pid in range(geo.page_count):
            pages[pid] = Page.from_bytes(f.read(geo.page_size))
    for rec in wal.scan(0):
        if rec.lsn < backup.min_lsn:
            continue
        page = pages[rec.page_id]
        if rec.lsn <= page.page_lsn:
            continue
        if rec.op == OP_SET:
            page.set(rec.key, rec.value)
        else:
            page.delete(rec.key)
        page.page_lsn = rec.lsn
    out = bytearray(geo.header_bytes())
    for pid in range(geo.page_count):
        out += pages[pid].to_bytes(geo.page_size)
    return bytes(out)


def volume_file_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def logical_state(path: str) -> dict[int, dict[int, bytes]]:
    """page id -> records map for every non-empty page of a volume file."""
    vol = Volume.open(path)
    state = {}
    try:
        for pid in range(vol.geometry.page_count):
            page, _ = vol.read_page(pid)
            if page.records:
                state[pid] = dict(page.records)
    finally:
        vol.close()
    return state


# -- entry points -----------------------------------------------------------------

def run_benchmark(config: WorkloadConfig) -> MetricsReport:
    """Build the volume, take a full backup, run the workload, inject the
    failure, restore under config.policy, and emit CSVs when config.out_dir
    is set.  The archiver steps while the workers run, so the failure's
    catch-up archives only the log's tail, and restore begins once the
    archive's runs are merged into one.  The scratch directory is removed
    on every exit, a rejected config included."""
    with _scratch_engine(config, "segstore-bench-") as engine:
        report = engine.run()
    if config.out_dir:
        emit_csv(report, config.out_dir)
    return report


@contextlib.contextmanager
def _scratch_engine(config: WorkloadConfig, prefix: str, **kw):
    """A BenchEngine in a fresh temporary directory, closed and removed on
    exit."""
    workdir = tempfile.mkdtemp(prefix=prefix)
    try:
        engine = BenchEngine(config, workdir, **kw)
        try:
            yield engine
        finally:
            engine.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _idle_archive_step(batch_budget: int, now: float = 0.0) -> tuple[int, float]:
    """An archiver step that reads and writes nothing: the engine still
    steps the archiver at its interval, and the log buffer is never armed."""
    return 0, now


def measure_archiving_overhead(config: WorkloadConfig) -> dict:
    """Same run three times, no failure: archiving with sort+index, a plain
    file copy, and an idle archiver that steps at the same interval but
    reads nothing.  Reports the median throughput over the whole seconds of
    each, and sorted's overhead ratio against copy and against idle, the
    whole cost of archiving to transactions.  Raises ValueError if a run
    commits in no whole second, since there is then no throughput to
    compare."""
    results = {}
    for name, mode in (("sorted", "sorted"), ("copy", "copy"), ("idle", "copy")):
        cfg = replace(config, archive_mode=mode, failure_time_s=None)
        with _scratch_engine(cfg, f"segstore-ovh-{name}-") as engine:
            if name == "idle":
                engine.archiver.archive_step = _idle_archive_step
            report = engine.run()
        series = [n for n in report.per_second_txns()[:int(report.duration_s)] if n > 0]
        if not series:
            raise ValueError(f"{name} archiving committed in no whole second "
                             f"of a {report.duration_s:g} s run")
        results[name] = statistics.median(series)
    sorted_tps = results["sorted"]
    return {"sorted_indexed_tps": sorted_tps, "plain_copy_tps": results["copy"],
            "idle_tps": results["idle"],
            "overhead_ratio": 1.0 - sorted_tps / results["copy"],
            "idle_overhead_ratio": 1.0 - sorted_tps / results["idle"]}


def verify_equivalence(config: WorkloadConfig) -> dict:
    """The headline correctness check: a run that loses its database device
    mid-way and restores on demand must end byte-identical to brute-force
    recovery and logically identical to the same run without a failure."""
    if config.failure_time_s is None:
        raise ValueError("verify_equivalence needs a failure to restore from")
    cfg = config if config.txns_per_worker is not None else \
        replace(config, txns_per_worker=(200, 200))
    out = {}

    with _scratch_engine(cfg, "segstore-verify-fail-", finish_restore=True) as engine:
        report = engine.run()
        engine.flush_all()
        restored = volume_file_bytes(engine.replacement.device.path)
        oracle = oracle_volume_bytes(engine.backup, engine.wal)
        out["oracle_match"] = restored == oracle
        out["restore_complete"] = engine.manager is not None and engine.manager.complete
        out["invariants"] = dict(report.invariants)
        failed_state = logical_state(engine.replacement.device.path)

    with _scratch_engine(replace(cfg, failure_time_s=None),
                         "segstore-verify-shadow-") as engine:
        engine.run()
        engine.flush_all()
        shadow_state = logical_state(engine.volume.device.path)

    out["shadow_match"] = failed_state == shadow_state
    out["ok"] = bool(out["oracle_match"] and out["shadow_match"]
                     and out["restore_complete"]
                     and all(out["invariants"].values()))
    return out
