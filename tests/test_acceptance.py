"""Acceptance gate: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred to later
calibration.  The benchmark engine is deterministic given a seed, so each
experiment below is a fixed, reproducible measurement.
"""

import os
import random
import shutil
import tempfile
import threading
import time

import pytest

from segstore import failpoints
from segstore.archive import ArchiveDirectory, LogArchiver
from segstore.backup import BackupImage
from segstore.bench import BenchEngine, measure_archiving_overhead, verify_equivalence
from segstore.errors import CrashInjected
from segstore.metrics import percentile
from segstore.restore import Policy
from segstore.workload import WorkloadConfig

from conftest import make_wal, random_history, run_blocks
from test_restore import build_env


def _announce(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# -- criterion 1: randomized end-state correctness -------------------------------

def test_c1_correctness_oracle_randomized_configs():
    """>=100 randomized configs across policies, segment sizes {1,8,128}
    pages, page counts in [64, 16384], with concurrent demand: the restored
    volume is byte-identical to brute-force recovery (backup + full
    LSN-order replay) and logically identical to a no-failure shadow run.
    Tolerance: exact.  Budget: < 5 minutes."""
    t0 = time.monotonic()
    rng = random.Random(20260808)
    policies = list(Policy)
    failures = []
    n_configs = 102
    for i in range(n_configs):
        # log-uniform page counts cover [64, 16384] without making every
        # config a hundred-megabyte volume; page size 1 KiB keeps file
        # I/O inside the time budget (the criterion pins page counts and
        # segment sizes, not page size), with 8 KiB spot checks.
        pages = int(64 * (16384 / 64) ** rng.random())
        page_size = 8192 if i % 17 == 0 else 1024
        if page_size == 8192:
            pages = min(pages, 2048)
        seg_pages = rng.choice([1, 8, 128])
        workers = rng.randint(2, 4)
        budget = max(20, min(400, pages // 2)) // workers
        cfg = WorkloadConfig(
            page_count=pages,
            page_size=page_size,
            pages_per_segment=seg_pages,
            pool_pages=max(4, pages // rng.choice([2, 4, 8])),
            worker_threads=workers,
            duration_s=10_000.0,
            failure_time_s=1.0,
            policy=policies[i % 3],
            run_size_limit=rng.choice([32, 128, 1024]),
            seed=rng.randrange(2 ** 31),
            skew=rng.choice([0.0, 0.5, 0.8, 1.0]),
            txns_per_worker=(budget, budget),
        )
        out = verify_equivalence(cfg)
        if not out["ok"]:
            failures.append((i, pages, seg_pages, cfg.policy.value, out))
    elapsed = time.monotonic() - t0
    _announce("C1 randomized end-state correctness", not failures and elapsed < 300,
              f"{n_configs} configs, {elapsed:.0f}s, failures={failures[:2]}")


# -- criterion 2: probe equivalence ------------------------------------------------

def test_c2_probe_equivalence(workdir):
    """>=1000 random probes equal the linear-scan-filter-sort oracle,
    across merges of random adjacent groups of runs (merge_runs).  Exact."""
    wal = make_wal(workdir)
    directory = ArchiveDirectory(os.path.join(workdir, "archive"), block_size=512)
    archiver = LogArchiver(wal, directory, run_size_limit=48)
    rng = random.Random(99)
    random_history(wal, rng, 6000, npages=200, nkeys=12)
    archiver.archive_up_to(wal.end_lsn())
    max_lsn = wal.end_lsn()

    def oracle(first, last, min_lsn):
        out = []
        for run in directory.snapshot():
            recs, _ = run.scan_all()
            out.extend(r for r in recs
                       if first <= r.page_id <= last and r.lsn >= min_lsn)
        return sorted(out, key=lambda r: (r.page_id, r.lsn))

    mismatches = 0
    probes = 1000
    for i in range(probes):
        a = rng.randrange(220)  # occasionally beyond any touched page
        b = min(219, a + rng.randrange(24))
        min_lsn = rng.choice([0, rng.randrange(max_lsn), max_lsn])
        got = list(directory.probe(a, b, min_lsn))
        if got != oracle(a, b, min_lsn):
            mismatches += 1
        if i % 100 == 50 and directory.run_count >= 2:
            width = rng.randint(2, min(4, directory.run_count))
            start = rng.randrange(directory.run_count - width + 1)
            inputs = list(directory.snapshot()[start:start + width])
            directory.merge_runs(inputs)
    _announce("C2 probe/oracle equivalence", mismatches == 0,
              f"{probes} probes across merge schedules, mismatches={mismatches}")


# -- criterion 3: exactly-once and liveness -----------------------------------------

def test_c3_exactly_once_liveness(workdir):
    """16 threads hammering random segments: every segment restored exactly
    once, restore completes, and no waiter starves (every wait returns
    within a bound comfortably above the full-restore time)."""
    env = build_env(workdir, page_count=256, pages_per_segment=4,
                    pool_pages=32, updates=600, policy=Policy.ON_DEMAND)
    mgr = env.manager
    mgr.start()
    total = mgr.segment_count
    errors = []
    t0 = time.monotonic()

    def hammer(tid):
        rng = random.Random(tid)
        segs = list(range(total))
        rng.shuffle(segs)
        try:
            for seg in segs:  # full coverage plus random repeats
                mgr.request_segment(seg).wait(timeout=30.0)
            for _ in range(80):
                mgr.request_segment(rng.randrange(total)).wait(timeout=30.0)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(repr(exc))

    threads = [threading.Thread(target=hammer, args=(t,), daemon=True) for t in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    elapsed = time.monotonic() - t0
    mgr.stop()
    assert not any(t.is_alive() for t in threads)
    once = all(n == 1 for n in mgr.success_count.values())
    complete = mgr.complete and len(mgr.success_count) == total
    _announce("C3 exactly-once + liveness",
              not errors and once and complete and elapsed < 60.0,
              f"{total} segments, 16 threads, {elapsed:.1f}s, errors={errors[:2]}")


# -- criterion 4: restore latency vs offline restore --------------------------------

DESK = dict(page_count=32768, page_size=8192, pages_per_segment=128,
            worker_threads=8, duration_s=20.0, failure_time_s=6.0,
            run_size_limit=4096, skew=0.8, seed=42)


def _run_engine(cfg, finish=True):
    workdir = tempfile.mkdtemp(prefix="segstore-acc-")
    engine = BenchEngine(cfg, workdir, finish_restore=finish)
    try:
        report = engine.run()
    finally:
        engine.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def test_c4_latency_ratio():
    """Desk geometry (256 MiB volume, 1 MiB segments), pool at the upper
    end of the default 25-50% sweep, on-demand-only with demand arriving
    immediately after failure: p99 post-failure latency < 5% of the
    measured single-pass total restore time, max single latency < 15%."""
    sp = _run_engine(WorkloadConfig(policy=Policy.SINGLE_PASS, pool_pages=16384,
                                    **{**DESK, "worker_threads": 2}))
    t_sp = sp.restore_end_us - sp.restore_begin_us
    od = _run_engine(WorkloadConfig(policy=Policy.ON_DEMAND, pool_pages=16384, **DESK))
    post = od.post_failure_latencies()
    p99 = percentile(post, 0.99)
    worst = max(post)
    ok = p99 < 0.05 * t_sp and worst < 0.15 * t_sp and len(post) > 1000
    _announce("C4 latency ratio vs single-pass", ok,
              f"T_sp={t_sp / 1e6:.2f}s p99={p99 / 1e3:.1f}ms ({p99 / t_sp:.2%}) "
              f"max={worst / 1e3:.1f}ms ({worst / t_sp:.2%})")


# -- criterion 5: restore bandwidth shape --------------------------------------------

SHAPE = dict(page_count=8192, page_size=8192, pages_per_segment=32,
             pool_pages=4608, worker_threads=6, duration_s=12.0,
             failure_time_s=1.0, run_size_limit=4096, seed=9, skew=0.8,
             batch_cap=64, working_set_pages=4096, scramble_pages=False,
             db_latency=(100.0, 0.008), backup_latency=(100.0, 0.008),
             archive_latency=(150.0, 0.008))


def _quartile_batch_means(report):
    """Each restored segment scores the size of the batch that carried it;
    quartiles over cumulative restored segments (robust against one batch
    straddling a quartile boundary)."""
    events = report.restore_events
    total = sum(e[3] for e in events)
    sums, counts = [0.0] * 4, [0] * 4
    cum = 0
    for _, _, _, count, _ in events:
        for _ in range(count):
            q = min(3, cum * 4 // total)
            sums[q] += count
            counts[q] += 1
            cum += 1
    return [s / c if c else 0.0 for s, c in zip(sums, counts)]


def _q4_bandwidth(report):
    events = report.restore_events
    total = sum(e[3] for e in events)
    t_lo, t_hi, nbytes = float("inf"), 0.0, 0
    cum = 0
    for t0, t1, _, count, nb in events:
        if cum + count > total * 3 // 4:
            t_lo, t_hi, nbytes = min(t_lo, t0), max(t_hi, t1), nbytes + nb
        cum += count
    return nbytes / (t_hi - t_lo) if t_hi > t_lo else 0.0


def test_c5_bandwidth_shape():
    """Adaptive policy under decaying demand: per-quartile mean restored-
    batch size is non-decreasing and final-quartile bandwidth reaches at
    least 80% of the single-pass run on the same geometry."""
    pre = _run_engine(WorkloadConfig(policy=Policy.PREEMPTIVE, **SHAPE))
    means = _quartile_batch_means(pre)
    sp = _run_engine(WorkloadConfig(policy=Policy.SINGLE_PASS, **SHAPE))
    sp_bw = sum(e[4] for e in sp.restore_events) / \
        (sp.restore_end_us - sp.restore_begin_us)
    ratio = _q4_bandwidth(pre) / sp_bw
    mono = all(means[i] <= means[i + 1] + 1e-9 for i in range(3))
    _announce("C5 bandwidth shape", mono and ratio >= 0.80,
              f"quartile batch means={[round(m, 2) for m in means]} "
              f"final-quartile bw ratio={ratio:.2f}")


# -- criterion 6: throughput regimes over the pool sweep ------------------------------

# Regime geometry: a fast data tier (so transaction cost is think-time
# bound and pre-failure baselines stay within ~10% across pool sizes)
# over a seek-bound backup/archive tier (fixed transfer cost dominates,
# so each on-demand single pays what a batched sweep amortizes).  More
# demand then directly means a longer restore, and throughput snaps back
# when the working set's segments are in - which orders the regain times
# by pool size.  A background page cleaner keeps the pool from being
# wall-to-wall dirty at the failure, as any real engine would.
REGIME = dict(page_count=8192, page_size=8192, pages_per_segment=8,
              worker_threads=4, duration_s=40.0, failure_time_s=6.0,
              run_size_limit=4096, seed=21, skew=0.8, batch_cap=16,
              working_set_pages=4096, txn_think_us=600.0, op_think_us=25.0,
              cleaner_interval_us=20_000.0, cleaner_batch=128,
              db_latency=(5.0, 0.0002), backup_latency=(1200.0, 0.004),
              archive_latency=(1200.0, 0.004))


def _regain_and_dip(report, fail_s=6, dur_s=40):
    txns = report.per_second_txns()
    pre_mean = sum(txns[3:fail_s]) / (fail_s - 3)
    regain = dur_s - fail_s
    for s in range(fail_s + 1, dur_s - 2):
        if sum(txns[s:s + 3]) / 3 >= 0.95 * pre_mean:
            regain = s - fail_s
            break
    post = txns[fail_s + 1:]
    dip = 1 - (sum(post) / len(post)) / pre_mean
    return regain, dip


def test_c6_throughput_regimes():
    """Sweeping the pool over {10%, 25%, 50%, 100%} of the working set:
    time to regain pre-failure throughput is monotonically non-increasing
    in pool size, and at 100% the post-failure dip is < 10%."""
    results = []
    for pool in (410, 1024, 2048, 4096):
        rep = _run_engine(WorkloadConfig(policy=Policy.PREEMPTIVE,
                                         pool_pages=pool, **REGIME),
                          finish=False)
        results.append((pool, *_regain_and_dip(rep)))
    regains = [r[1] for r in results]
    mono = all(regains[i] >= regains[i + 1] for i in range(3))
    dip_100 = results[-1][2]
    _announce("C6 throughput regimes", mono and dip_100 < 0.10,
              "regain(s) by pool " +
              " ".join(f"{p}:{r}s" for p, r, _ in results) +
              f", dip at 100%={dip_100:.1%}")


# -- criterion 7: archiving overhead ----------------------------------------------------

def test_c7_archiving_overhead():
    """Sorted+indexed archiving costs < 10% median throughput against a
    plain log copy at desk scale; the measured ratio is reported, and
    beside it the overhead against an idle archiver that reads nothing."""
    cfg = WorkloadConfig(page_count=2048, page_size=8192, pages_per_segment=32,
                         pool_pages=1024, worker_threads=4, duration_s=8.0,
                         failure_time_s=None, run_size_limit=2048, seed=13,
                         skew=0.8)
    result = measure_archiving_overhead(cfg)
    overhead = result["overhead_ratio"]
    _announce("C7 archiving overhead", overhead < 0.10,
              f"sorted={result['sorted_indexed_tps']:.0f}tps "
              f"copy={result['plain_copy_tps']:.0f}tps overhead={overhead:.2%} "
              f"idle={result['idle_tps']:.0f}tps "
              f"vs-idle={result['idle_overhead_ratio']:.2%}")


# -- criterion 8: crash atomicity and index exactness --------------------------------------

def test_c8_crash_atomicity_and_index(workdir):
    """Run and backup publishes are atomic at every injected crash point
    (the manifest never references incomplete files), and every run's
    block index is exact: block_span(a, b) holds every record of pages a
    to b and no block whose pages, lowest to highest, miss [a, b]."""
    wal = make_wal(workdir)
    arch_path = os.path.join(workdir, "archive")
    directory = ArchiveDirectory(arch_path, block_size=512)
    archiver = LogArchiver(wal, directory, run_size_limit=40)
    rng = random.Random(4)
    random_history(wal, rng, 1200, npages=60)

    checks = []

    # crash before a run's rename: nothing published, retry emits it
    failpoints.arm("run:pre_rename")
    with pytest.raises(CrashInjected):
        archiver.archive_step(1000)
    checks.append(("run publish", ArchiveDirectory.load(arch_path,
                                                        block_size=512).run_count
                   == directory.run_count))
    archiver.archive_up_to(wal.end_lsn())

    def full_content():
        out = []
        for run in ArchiveDirectory.load(arch_path, block_size=512).snapshot():
            out.extend(run.scan_all()[0])
        return sorted(out, key=lambda r: r.lsn)

    want = full_content()

    # crash around a merge, both sides of the manifest swap
    for point in ("merge:pre_swap", "merge:pre_unlink"):
        reloaded = ArchiveDirectory.load(arch_path, block_size=512)
        if reloaded.run_count < 3:
            break
        failpoints.arm(point)
        with pytest.raises(CrashInjected):
            reloaded.merge_runs(list(reloaded.snapshot()[:3]))
        after = ArchiveDirectory.load(arch_path, block_size=512)
        ranges = after.lsn_ranges()
        contiguous = ranges[0][0] == 0 and all(
            a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        checks.append((point, contiguous and full_content() == want))

    # crash before a backup's rename: no partial image appears
    from conftest import make_volume
    vol = make_volume(workdir, page_count=32, page_size=1024, pages_per_segment=8)
    failpoints.arm("backup:pre_rename")
    with pytest.raises(CrashInjected):
        BackupImage.create(workdir, vol, make_wal(workdir, name="wal2.log"))
    checks.append(("backup publish",
                   not [n for n in os.listdir(workdir) if n.startswith("backup_")]))

    # index exactness, against the pages decoded from each block
    missed = extra = 0
    for run in ArchiveDirectory.load(arch_path, block_size=512).snapshot():
        blocks = run_blocks(run)
        for off, pids in blocks.items():
            for page_id in pids:
                start, end = run.block_span(page_id, page_id)
                missed += not start <= off < end
        for a in range(61):  # every range of the 60 pages, and page 60 past them
            for b in range(a, 61):
                start, end = run.block_span(a, b)
                extra += sum(min(blocks[off]) > b or max(blocks[off]) < a
                             for off in range(start, end, run.block_size))
    checks.append(("records outside their page's span", missed == 0))
    checks.append(("blocks in a span that miss its range", extra == 0))

    bad = [name for name, ok in checks if not ok]
    _announce("C8 crash atomicity + index exactness", not bad,
              f"checks={len(checks)}, failed={bad}")
