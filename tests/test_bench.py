import gc
import hashlib
import os
import re
import subprocess
import sys
import tempfile
import time
import weakref

import pytest

from segstore import failpoints
from segstore.bench import (BenchEngine, oracle_volume_bytes, run_benchmark,
                            verify_equivalence, volume_file_bytes)
from segstore.cli import main
from segstore.errors import ChecksumError, CrashInjected, StorageError
from segstore.metrics import emit_csv
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


def test_report_series_shape():
    report = run_benchmark(tiny_config(duration_s=3.0, failure_time_s=1.0))
    assert len(report.throughput_rows()) == 3
    assert len(report.restore_rows()) == 3
    assert report.total_txns > 0
    assert report.restore_begin_us is not None
    assert all(report.invariants.values())
    assert report.pre_failure_latencies() and report.post_failure_latencies()


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
        engine.wal.flush()
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
     "499434b54324b8d4e11c8d43b165d0dbe200377a1ec1c3546a5d503ddc03cf73"),
    (dict(policy=Policy.ON_DEMAND), True,
     "e60b660f6b07de5e6d31b37cf33e4d3ab13891cb9df07a49a5dcd5c9bb0cea77"),
], ids=["preemptive-cleaner", "ondemand-finish"])
def test_engine_schedule_pinned(tmp_path, kw, finish_restore, digest):
    engine = BenchEngine(tiny_config(duration_s=3.0, **kw), str(tmp_path / "work"),
                         finish_restore=finish_restore)
    try:
        report = engine.run()
    finally:
        engine.close()
    assert report.restore_events and all(report.invariants.values())
    assert _csv_digest(report, str(tmp_path / "csv")) == digest


# Count mode, pinned the same way: a failure run that drains its restore,
# and its no-failure shadow, which has no restore events.
@pytest.mark.parametrize("kw, digest", [
    (dict(), "a2cc959db0f70a109fafd7410bdab27574d4c5b9af32867cb4694da1cb0cc80f"),
    (dict(failure_time_s=None),
     "f11c8bdccefe8cb74af1a523a0cf6c93508aaa66db24e51ae9a08be98d2df530"),
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
    assert _csv_digest(report, str(tmp_path / "csv")) == digest


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
    for name in ("backup.fetch", "archive.probe", "restore.replay", "runfile.scan",
                 "volume.write_span", "bufferpool.fix", "wal.append"):
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
