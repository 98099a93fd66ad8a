import gc
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import weakref

import pytest

from segstore import failpoints
from segstore.bench import (ARCHIVER_BUDGET, BenchEngine, oracle_volume_bytes,
                            run_benchmark, verify_equivalence, volume_file_bytes)
from segstore.cli import main
from segstore.device import Device
from segstore.errors import ChecksumError, CrashInjected, StorageError
from segstore.metrics import emit_csv, load_csv
from segstore.restore import Policy, RestoreManager
from segstore.volume import HEADER_SIZE, Geometry
from segstore.workload import WorkloadConfig


def tiny_config(**kw):
    base = dict(page_count=256, page_size=1024, pages_per_segment=16,
                pool_pages=64, worker_threads=2, duration_s=4.0,
                failure_time_s=1.0, run_size_limit=128, seed=11,
                policy=Policy.PREEMPTIVE)
    base.update(kw)
    return WorkloadConfig(**base)


def test_config_rejected_when_failure_after_duration():
    with pytest.raises(ValueError):
        run_benchmark(tiny_config(duration_s=1.0, failure_time_s=5.0))
    # Nor may a run be empty, fail before time 0, or run time backwards.
    for bad in (dict(duration_s=0.0, failure_time_s=None),
                dict(duration_s=0.0, failure_time_s=-1.0),
                dict(duration_s=-5.0, failure_time_s=-10.0),
                dict(duration_s=3.0, failure_time_s=-2.0),
                dict(txn_think_us=-1.0), dict(op_think_us=-1.0),
                dict(cleaner_interval_us=-1.0), dict(cleaner_batch=0),
                dict(txns_per_worker=(-1, 10)), dict(txns_per_worker=(10, -1)),
                dict(working_set_pages=0),
                # a copy-mode archive cannot serve the restore a failure needs
                dict(archive_mode="copy")):
        with pytest.raises(ValueError):
            run_benchmark(tiny_config(**bad))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_unknown_archive_mode_rejected_before_files_open():
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(ValueError):
        run_benchmark(tiny_config(archive_mode="bogus"))
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_set_up_closes_what_it_opened():
    """A set-up that fails after opening the volume, the replacement, the
    WAL and the archive (here: while publishing the backup) closes them."""
    fds = len(os.listdir("/proc/self/fd"))
    failpoints.arm("backup:pre_rename")
    with pytest.raises(CrashInjected):
        run_benchmark(tiny_config())
    assert len(os.listdir("/proc/self/fd")) == fds


def test_run_benchmark_removes_its_scratch_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(ValueError):
        run_benchmark(tiny_config(duration_s=1.0, failure_time_s=5.0))
    assert os.listdir(tmp_path) == []
    run_benchmark(tiny_config(duration_s=1.0, failure_time_s=None))
    assert os.listdir(tmp_path) == []


def test_verify_equivalence_needs_a_failure(tmp_path, monkeypatch):
    """Without a failure there is nothing to restore: the call is refused
    before it makes a scratch directory."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(ValueError):
        verify_equivalence(tiny_config(failure_time_s=None))
    assert os.listdir(tmp_path) == []


def test_shadow_execution_oracle():
    out = verify_equivalence(tiny_config(txns_per_worker=(60, 60)))
    assert out["oracle_match"] and out["shadow_match"] and out["ok"]


def test_fresh_engine_set_up(tmp_path):
    """The replacement starts blank: its header, then zeros that fail every
    page's checksum, with no transfer charged to it; and the workers share
    one zipf CDF."""
    config = tiny_config()
    engine = BenchEngine(config, str(tmp_path / "work"))
    try:
        image = volume_file_bytes(engine.replacement.device.path)
        assert len(image) == HEADER_SIZE + config.page_count * config.page_size
        assert Geometry.from_header(image) == Geometry(
            config.page_size, config.page_count, config.pages_per_segment)
        assert image[HEADER_SIZE:] == bytes(len(image) - HEADER_SIZE)
        dev = engine.replacement.device
        assert (dev.reads, dev.writes, dev.bytes_read, dev.bytes_written) == (0, 0, 0, 0)
        assert dev._busy_until == 0.0
        with pytest.raises(ChecksumError):
            engine.replacement.read_page(config.page_count - 1)
        first, second = engine.workers[0].stream, engine.workers[1].stream
        assert first.zipf._cdf is second.zipf._cdf
    finally:
        engine.close()


def test_closed_engine_freed_by_reference_counting(tmp_path):
    """A closed engine holds no reference cycle: with the cyclic collector
    off, dropping the last reference frees the engine, its pool, its
    restore manager and its report."""
    gc.disable()
    try:
        engine = BenchEngine(tiny_config(), str(tmp_path / "work"))
        engine.run()
        engine.close()
        refs = {name: weakref.ref(obj) for name, obj in (
            ("engine", engine), ("pool", engine.pool),
            ("manager", engine.manager), ("report", engine.report))}
        del engine
        assert [name for name, ref in refs.items() if ref() is not None] == []
    finally:
        gc.enable()


def test_reproducible_wal_and_volume(tmp_path):
    digests = []
    for attempt in range(2):
        workdir = str(tmp_path / f"run{attempt}")
        engine = BenchEngine(tiny_config(txns_per_worker=(80, 80)), workdir,
                             finish_restore=True)
        engine.run()
        engine.flush_all()
        wal_hash = hashlib.sha256(volume_file_bytes(os.path.join(workdir, "wal.log")))
        vol_hash = hashlib.sha256(volume_file_bytes(os.path.join(workdir, "replacement.db")))
        digests.append((wal_hash.hexdigest(), vol_hash.hexdigest()))
        engine.close()
    assert digests[0] == digests[1]


def test_failure_merges_the_archive_into_one_run(tmp_path):
    """At the failure the catch-up's runs are merged into one run covering
    the whole log before the failure, and restore begins when the archive
    device has written it."""
    engine = BenchEngine(tiny_config(duration_s=2.0), str(tmp_path / "work"))
    merges, seen = [], {}
    real_merge, real_inject = engine.archive_dir.merge_runs, engine._inject_failure

    def merge_runs(inputs, now=0.0):
        out, t = real_merge(inputs, now)
        merges.append((len(inputs), t))
        return out, t

    def inject_failure():
        before = len(merges)
        real_inject()
        seen["merges"] = merges[before:]
        seen["ranges"] = engine.archive_dir.lsn_ranges()

    engine.archive_dir.merge_runs = merge_runs
    engine._inject_failure = inject_failure
    try:
        report = engine.run()
    finally:
        engine.close()
    [(n_inputs, t_merged)] = seen["merges"]
    assert n_inputs > 1
    assert seen["ranges"] == [(0, engine.failure_lsn)]
    assert report.restore_begin_us == t_merged > engine.config.failure_time_s * 1e6


def test_archiver_runs_before_the_failure(tmp_path):
    """The archiver steps while the workers run, so when the device fails
    the log it has not read yet is at most one step's budget."""
    engine = BenchEngine(tiny_config(duration_s=3.0), str(tmp_path / "work"))
    steps, at_failure = [0], {}
    archive_step, fail_device = engine.archiver.archive_step, engine.pool.fail_device

    def on_archive_step(*args, **kwargs):
        steps[0] += 1
        return archive_step(*args, **kwargs)

    def on_fail(*args, **kwargs):
        at_failure["steps"] = steps[0]
        at_failure["unread"] = sum(1 for _ in engine.wal.scan(engine.archiver.consumed_lsn))
        return fail_device(*args, **kwargs)

    engine.archiver.archive_step, engine.pool.fail_device = on_archive_step, on_fail
    try:
        report = engine.run()
    finally:
        engine.close()
    assert all(report.invariants.values())
    assert at_failure["steps"] > 0
    assert at_failure["unread"] <= ARCHIVER_BUDGET


def test_archiver_reads_the_log_device_at_most_once(tmp_path):
    """The archiver keeps up with the log, so after the read that arms the
    log buffer every read it makes is served from memory: a run with a
    failure charges the log device at most one read."""
    engine = BenchEngine(tiny_config(), str(tmp_path / "work"))
    try:
        report = engine.run()
    finally:
        engine.close()
    assert all(report.invariants.values())
    assert engine.archiver.archived_upto >= engine.failure_lsn > 1
    assert engine.wal.device.reads <= 1


@pytest.mark.parametrize("failure_time_s", [None, 1.0], ids=["steady", "failure"])
def test_archiver_reads_only_durable_log(tmp_path, failure_time_s):
    """Every archiver read completes at or after the completion of the
    newest record it returns, so a read returns only log that is durable
    by then: a read from the log buffer completes at the later of its
    issue time and that record's completion, and a read from the file
    starts when the log device's last write is done.

    The newest record a read returns often completes after the time the
    read is issued at, a median 0.55 ms after it in the run without a
    failure (955 of 1,137 reads wait for it) and 0.57 ms in the one with
    it (954 of 1,127): workers step whole transactions, so appends that
    complete after the read's issue time are already reserved on the log
    device when it is issued."""
    engine = BenchEngine(tiny_config(duration_s=3.0, failure_time_s=failure_time_s),
                         str(tmp_path / "work"))
    done_at, reads, early = {}, [0], []
    append, read_suffix = engine.wal.append, engine.wal.read_suffix

    def on_append(*args, **kwargs):
        lsn, t = append(*args, **kwargs)
        done_at[lsn] = t
        return lsn, t

    def on_read_suffix(*args, **kwargs):
        records, next_lsn, t = read_suffix(*args, **kwargs)
        if records:
            reads[0] += 1
            if t < done_at[records[-1].lsn]:
                early.append(records[-1].lsn)
        return records, next_lsn, t

    engine.wal.append, engine.wal.read_suffix = on_append, on_read_suffix
    try:
        report = engine.run()
    finally:
        engine.close()
    assert all(report.invariants.values())
    assert reads[0] > 0 and not early, f"{len(early)} of {reads[0]} reads ran ahead"


def test_report_series_shape():
    report = run_benchmark(tiny_config(duration_s=3.0, failure_time_s=1.0))
    assert len(report.throughput_rows()) == 3
    assert len(report.restore_rows()) == 3
    assert report.total_txns > 0
    assert report.restore_begin_us is not None
    assert all(report.invariants.values())
    assert report.pre_failure_latencies() and report.post_failure_latencies()


def test_restore_csv_holds_every_restored_byte(tmp_path):
    """A restore that a run finishes after its last second still lands in
    restore.csv: its rows add up to the whole device."""
    cfg = tiny_config(page_count=8192, duration_s=2.0, failure_time_s=1.9)
    engine = BenchEngine(cfg, str(tmp_path / "work"), finish_restore=True)
    try:
        report = engine.run()
    finally:
        engine.close()
    assert report.restore_events[-1][1] >= 2_000_000  # a batch ends past the run
    emit_csv(report, str(tmp_path / "csv"))
    rows = load_csv(str(tmp_path / "csv" / "restore.csv"))
    assert len(rows) == 2
    assert sum(int(r["bytes_restored"]) for r in rows) == 8192 * 1024


def test_fractional_duration_keeps_its_last_second():
    report = run_benchmark(tiny_config(duration_s=2.5, failure_time_s=1.0))
    rows = report.throughput_rows()
    assert len(rows) == len(report.restore_rows()) == 3
    assert sum(row[1] for row in rows) == report.total_txns


def test_integer_duration_rows_hold_every_transaction():
    """Transactions admitted before the end commit after it; they count in
    the last row, which adds no row."""
    report = run_benchmark(tiny_config(duration_s=3.0, failure_time_s=1.0))
    assert max(report.txns) == 3  # some committed after the last second began
    rows = report.throughput_rows()
    assert len(rows) == 3 and [row[1] for row in rows] == report.per_second_txns()
    assert sum(report.per_second_txns()) == report.total_txns


def test_csv_emission(tmp_path):
    out_dir = str(tmp_path / "csv")
    run_benchmark(tiny_config(duration_s=2.0, out_dir=out_dir))
    assert sorted(os.listdir(out_dir)) == ["latency_samples.csv", "restore.csv",
                                           "throughput.csv"]


def test_cli_run_and_exit_codes(tmp_path, capsys):
    rc = main(["run", "--pages", "256", "--page-size", "1024",
               "--segment-pages", "16", "--pool-pages", "64", "--threads", "2",
               "--duration", "2", "--fail-at", "1", "--run-limit", "128",
               "--seed", "4", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "invariant" in out and "VIOLATED" not in out
    assert (tmp_path / "out" / "throughput.csv").exists()
    # The summary gives each side of the failure its mean and percentiles.
    assert re.search(r"^transactions: [1-9]\d*$", out, re.M), out
    for side in ("pre", "post"):
        assert re.search(rf"^{side}-failure latency: mean [\d.]+ us, p50 [\d.]+ us, "
                         r"p99 [\d.]+ us, p999 [\d.]+ us, max [\d.]+ us$", out, re.M), out


def test_cli_verify(capsys):
    rc = main(["verify", "--pages", "128", "--page-size", "1024",
               "--segment-pages", "8", "--pool-pages", "32", "--threads", "2",
               "--run-limit", "64", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out


_CLI_WORKLOAD = ["--pages", "128", "--page-size", "1024", "--segment-pages", "8",
                 "--pool-pages", "32", "--threads", "2", "--skew", "0.8",
                 "--run-limit", "64", "--seed", "5", "--workset", "96"]
_CLI_TIMED = ["--duration", "2"]  # run and overhead; verify counts transactions
_CLI_RESTORE = ["--policy", "preemptive", "--batch-cap", "4"]


@pytest.mark.parametrize("argv", [
    ["run"] + _CLI_WORKLOAD + _CLI_TIMED + ["--fail-at", "1"] + _CLI_RESTORE
    + ["--out", "out"],
    ["verify"] + _CLI_WORKLOAD + _CLI_RESTORE,
    ["overhead"] + _CLI_WORKLOAD + _CLI_TIMED,
], ids=["run", "verify", "overhead"])
def test_cli_closes_its_files(tmp_path, argv):
    """Each subcommand, given every flag it takes, exits 0 under the
    interpreter's development mode with no unclosed-file warning."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                         os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "segstore.cli"] + argv,
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--out", "out"],
    ["verify", "--fail-at", "1"],
    ["verify", "--duration", "2"],
    ["overhead", "--out", "out"],
    ["overhead", "--fail-at", "1"],
    ["overhead", "--policy", "ondemand"],
    ["overhead", "--batch-cap", "4"],
], ids=lambda argv: " ".join(argv[:2]))
def test_cli_rejects_flags_the_subcommand_ignores(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + _CLI_WORKLOAD + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_bad_config(capsys):
    for argv in (["--duration", "1", "--fail-at", "5"],
                 ["--duration", "0", "--fail-at", "-1"],
                 ["--duration", "3", "--fail-at", "-2"]):
        rc = main(["run", "--pages", "64"] + argv)
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def test_cli_overhead(capsys):
    rc = main(["overhead", "--pages", "128", "--page-size", "1024",
               "--segment-pages", "8", "--pool-pages", "64", "--threads", "2",
               "--duration", "3", "--run-limit", "128", "--seed", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overhead ratio" in out


def test_cli_overhead_without_a_whole_second_fails(capsys):
    """A run shorter than one second has no whole second to take a median
    over: the command reports an error instead of a ratio of zeros."""
    rc = main(["overhead", "--pages", "128", "--page-size", "1024",
               "--segment-pages", "8", "--pool-pages", "64", "--threads", "2",
               "--duration", "0.5", "--run-limit", "128", "--seed", "6"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "no whole second" in captured.err
    assert "overhead ratio" not in captured.out


def test_overhead_modes_log_identical_work(tmp_path):
    """Archiving is passive: the sorted and copy runs of the same seed log
    the exact same bytes."""
    digests = []
    for mode in ("sorted", "copy"):
        cfg = tiny_config(failure_time_s=None, archive_mode=mode,
                          txns_per_worker=(120, 0), duration_s=30.0)
        workdir = str(tmp_path / mode)
        engine = BenchEngine(cfg, workdir)
        engine.run()
        digests.append(hashlib.sha256(
            volume_file_bytes(os.path.join(workdir, "wal.log"))).hexdigest())
        engine.close()
    assert digests[0] == digests[1]


def test_single_worker_tiny_config_shadow():
    out = verify_equivalence(tiny_config(page_count=64, pages_per_segment=8,
                                         pool_pages=16, worker_threads=1,
                                         txns_per_worker=(40, 40)))
    assert out["ok"]


def _fault_backup_fetch(engine, fails) -> None:
    """Make the engine's backup fetch of pages [first, end) raise
    StorageError whenever fails(first, end) is true."""
    real_fetch = engine.backup.fetch_page_span

    def fetch(first, end, now=0.0):
        if fails(first, end):
            raise StorageError("injected backup fetch fault")
        return real_fetch(first, end, now)

    engine.backup.fetch_page_span = fetch


@pytest.mark.parametrize("policy", list(Policy))
def test_engine_retries_transient_fetch_faults(tmp_path, policy):
    """Two failed backup fetches under a running workload are retried:
    the run completes and the replacement ends byte-equal to brute-force
    recovery."""
    engine = BenchEngine(tiny_config(txns_per_worker=(100, 100), policy=policy),
                         str(tmp_path / "work"), finish_restore=True)
    try:
        faults = [2]

        def fails(first, end):
            faults[0] -= 1
            return faults[0] >= 0

        _fault_backup_fetch(engine, fails)
        report = engine.run()
        engine.flush_all()
        mgr = engine.manager
        assert faults[0] < 0  # both faults fired
        assert mgr.complete and all(report.invariants.values())
        assert sum(mgr.attempt_count.values()) > sum(mgr.success_count.values())
        assert (volume_file_bytes(engine.replacement.device.path)
                == oracle_volume_bytes(engine.backup, engine.wal))
    finally:
        engine.close()


@pytest.mark.parametrize("policy", list(Policy))
def test_engine_reports_permanent_fetch_fault(tmp_path, monkeypatch, policy):
    """A demanded segment whose backup fetch always fails ends the run
    with a worker's restore error, in a bounded number of scheduler
    steps, instead of hanging."""
    real_step = RestoreManager.step
    steps = [0]

    def bounded_step(self, now=0.0):
        steps[0] += 1
        assert steps[0] <= 1000, "scheduler kept stepping"
        return real_step(self, now)

    monkeypatch.setattr(RestoreManager, "step", bounded_step)
    engine = BenchEngine(tiny_config(txns_per_worker=(100, 100), policy=policy),
                         str(tmp_path / "work"), finish_restore=True)
    try:
        # Page 0 holds zipf rank 0, the hottest page, so workers demand segment 0.
        bad_first, bad_end = engine.replacement.geometry.segment_span(0)
        _fault_backup_fetch(engine, lambda first, end: first < bad_end and bad_first < end)
        t0 = time.monotonic()
        with pytest.raises(StorageError, match=r"^worker \d+ saw restore failure: "):
            engine.run()
        assert time.monotonic() - t0 < 30.0
        assert engine.manager.handle(0).error is not None
    finally:
        engine.close()


def test_touching_the_failed_device_fails_the_gate(tmp_path):
    """failed_device_untouched fails when restore tries the failed device:
    the first backup fetch after the failure reads its span from the
    database volume first, which refuses it.  The batch counts a failed
    attempt and is retried, so the run completes."""
    engine = BenchEngine(tiny_config(duration_s=3.0), str(tmp_path / "work"))
    real_fetch, tried = engine.backup.fetch_page_span, []

    def fetch(first, end, now=0.0):
        if not tried:
            tried.append(first)
            engine.volume.read_page_span(first, end, now)
        return real_fetch(first, end, now)

    engine.backup.fetch_page_span = fetch
    try:
        report = engine.run()
    finally:
        engine.close()
    assert tried and report.invariants["failed_device_untouched"] is False
    assert engine.volume.device.refused == 1
    assert sum(engine.manager.attempt_count.values()) > sum(engine.manager.success_count.values())


def test_cleaner_writes_one_page_per_step(tmp_path):
    """The cleaner issues one write per step: within a round the next step
    starts when that write completes, and after cleaner_batch pages (or a
    step with nothing to clean) it waits cleaner_interval_us."""
    batch, interval = 4, 500.0
    cfg = tiny_config(failure_time_s=None, duration_s=1.0,
                      cleaner_interval_us=interval, cleaner_batch=batch)
    engine = BenchEngine(cfg, str(tmp_path / "work"))
    steps = []
    flush_some, step = engine.pool.flush_some, engine._cleaner_step
    device = engine.volume.device

    def traced_flush_some(limit, now=0.0):
        out = flush_some(limit, now)
        steps[-1]["flushed"], steps[-1]["done"] = out
        return out

    def traced_step(now):
        writes = device.writes
        steps.append(dict(now=now))
        step(now)
        steps[-1]["writes"] = device.writes - writes

    engine.pool.flush_some = traced_flush_some
    engine._cleaner_step = traced_step
    try:
        engine.run()
    finally:
        engine.close()
    assert len(steps) > 2 * batch
    in_round = full_rounds = 0
    for cur, nxt in zip(steps, steps[1:]):
        assert cur["writes"] == cur["flushed"] <= 1
        in_round += cur["flushed"]
        if cur["flushed"] and in_round < batch:
            assert nxt["now"] == cur["done"]
        else:
            assert nxt["now"] == cur["done"] + interval
            full_rounds += in_round == batch
            in_round = 0
    assert full_rounds > 1


def test_latency_gate_fails_when_a_clock_would_run_back(monkeypatch):
    """latency_accounting fails when a completion a worker waits for comes
    before the clock it was issued at.  The mutant device starts each
    transfer when its last one ended, even if it is issued later."""
    def admit(self, nbytes, now):
        self._busy_until += self.latency.cost_us(nbytes)
        self._group_start = -math.inf
        return self._busy_until

    monkeypatch.setattr(Device, "_admit", admit)
    report = run_benchmark(tiny_config(duration_s=3.0))
    assert report.invariants["latency_accounting"] is False


@pytest.mark.parametrize("policy", [Policy.ON_DEMAND, Policy.PREEMPTIVE])
def test_woken_worker_resumes_through_the_pick(tmp_path, policy):
    """A worker woken from a restore wait resumes no later than the lowest
    clock among the other unparked workers still inside the run, so its
    I/O does not enter the FCFS device queues ahead of theirs."""
    cfg = tiny_config(duration_s=3.0, policy=policy)
    engine = BenchEngine(cfg, str(tmp_path / "work"))
    end_us = cfg.duration_s * 1e6
    resumes = []  # (resume time, lowest clock among the other runnable workers)

    class Proxy:
        def __init__(self, w):
            self.w, self.gen = w, w.gen

        def __next__(self):
            return next(self.gen)

        def send(self, t):
            others = [o.clock for o in engine.workers if o is not self.w
                      and o.parked_on is None and o.clock < end_us]
            resumes.append((t, min(others, default=math.inf)))
            return self.gen.send(t)

        def close(self):
            self.gen.close()

    for w in engine.workers:
        w.gen = Proxy(w)
    try:
        engine.run()
    finally:
        engine.close()
    ahead = [t - low for t, low in resumes if t > low]
    assert resumes and not ahead, (f"{len(ahead)} of {len(resumes)} resumes start "
                                   f"up to {max(ahead, default=0):.1f} us ahead")


def test_large_pool_hides_the_failure():
    """With the pool covering the working set, post-failure mean latency
    stays within 2x of the pre-failure mean."""
    cfg = tiny_config(page_count=1024, pages_per_segment=16, pool_pages=600,
                      working_set_pages=512, worker_threads=2,
                      duration_s=8.0, failure_time_s=3.0, skew=0.8)
    report = run_benchmark(cfg)
    pre = report.pre_failure_latencies()
    post = report.post_failure_latencies()
    pre_mean = sum(pre) / len(pre)
    post_mean = sum(post) / len(post)
    assert post_mean < 2 * pre_mean


def test_wall_clock_paces_run():
    import time
    cfg = tiny_config(page_count=64, pages_per_segment=8, pool_pages=16,
                      worker_threads=1, duration_s=0.3, failure_time_s=0.1,
                      wall_clock=True)
    t0 = time.monotonic()
    run_benchmark(cfg)
    assert time.monotonic() - t0 >= 0.25


def _csv_digest(report, out_dir):
    """sha256 over the emitted CSV set, each file keyed by its name."""
    emit_csv(report, out_dir)
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


# The engine's actor schedule, pinned by its outputs.  A change that alters
# the experiment on purpose records new digests here and says so.
@pytest.mark.parametrize("kw, finish_restore, digest", [
    (dict(cleaner_interval_us=500.0), False,
     "286ec24a285d0d292bd10004ae02fa9a764fbd547985864ec479e04a1cc81102"),
    (dict(policy=Policy.ON_DEMAND), True,
     "32add31ba82bf6e44f3a366cd7201fe14d8c6ebe14fff2d0067bb5ceffe09b4b"),
], ids=["preemptive-cleaner", "ondemand-finish"])
def test_engine_schedule_pinned(tmp_path, kw, finish_restore, digest):
    engine = BenchEngine(tiny_config(duration_s=3.0, **kw), str(tmp_path / "work"),
                         finish_restore=finish_restore)
    try:
        report = engine.run()
    finally:
        engine.close()
    assert report.restore_events and all(report.invariants.values())
    got = _csv_digest(report, str(tmp_path / "csv"))
    assert got == digest, f"CSV digest is now {got}"


# Count mode, pinned the same way: a failure run that drains its restore,
# and its no-failure shadow, which has no restore events.
@pytest.mark.parametrize("kw, digest", [
    (dict(), "217e8594b251dd6a6c9f4cb7d8ea3c3e60590c589dc0ab8cc78175ff83de0500"),
    (dict(failure_time_s=None),
     "5858f115ea05ca5e3ce32869e0821584ea0cecc6336006c92fdd32a5b06d4bfb"),
], ids=["failure", "shadow"])
def test_count_mode_schedule_pinned(tmp_path, kw, digest):
    cfg = tiny_config(txns_per_worker=(60, 60), **kw)
    engine = BenchEngine(cfg, str(tmp_path / "work"), finish_restore=True)
    try:
        report = engine.run()
    finally:
        engine.close()
    assert bool(report.restore_events) == (cfg.failure_time_s is not None)
    assert report.total_txns == 240 and all(report.invariants.values())
    got = _csv_digest(report, str(tmp_path / "csv"))
    assert got == digest, f"CSV digest is now {got}"


def test_tracer_entry_points_still_fire(tmp_path, monkeypatch):
    """The benchmark's per-layer tracer patches these entry points by name;
    each must still be called on a failing run, and uninstall must put
    every original back."""
    # perfbench sits beside src/ at the repository root.
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.tracing import ENTRY_POINTS, Tracer

    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in ENTRY_POINTS]
    tracer = Tracer()
    tracer.install()
    try:
        engine = BenchEngine(tiny_config(duration_s=3.0), str(tmp_path / "work"))
        try:
            engine.run()
        finally:
            engine.close()
    finally:
        tracer.uninstall()
    for name in ("backup.fetch", "archive.probe", "archive.maintenance", "archive.merge",
                 "restore.replay", "runfile.scan", "volume.write_span", "bufferpool.fix",
                 "wal.append"):
        assert tracer.calls.get(name, 0) > 0, name
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in originals)


def test_perfbench_selftest_passes():
    """The benchmark's self-test (same-seed determinism, traced self times
    adding up, a flipped byte failing the oracle gate) passes on this tree."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: PASS" in proc.stdout
