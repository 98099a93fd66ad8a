"""Failure-and-restore benchmark for segstore.

    python3 perfbench/run.py --workload regime --seed 1 --seconds 10 --trace 0

Runs one named workload (see perfbench/workloads.py) through
segstore.bench.BenchEngine in this process, checks that its outputs are
correct, prints every metric by name with its unit and direction, and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  The workload's virtual
schedule is fixed by its config and --seed; the run is repeated until
--seconds of wall time have been measured, and wall-clock metrics are
medians over the repetitions.  Set-up is timed at least SETUP_SAMPLES
times.

--trace 1 runs the workload once untraced and once with the per-layer
wrappers of perfbench/tracing.py installed, and reports the per-layer
metrics; their virtual values must match the untraced run exactly.

Scratch files go to .perfbench_work/ and outputs (CSV fingerprints,
spans, a summary per run) to .perfbench_out/, both under the checkout.
Exit status is 0 only if every correctness check held.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 3
# Wall time is sampled every CHUNK_TXNS commits, and sim_us_per_txn is the
# median chunk: contention from other tenants of the host slows stretches
# of a run by up to 1.7x, and a mean over the run would carry every burst.
CHUNK_TXNS = 200

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "tps": ("txn/s", "higher"),
    "txn_mean_ms": ("ms", "lower"),
    "txn_p999_ms": ("ms", "lower"),
}


def _import_engine() -> None:
    """Put this checkout's src/ first on the path and make sure the engine
    measured is the one it holds."""
    if not os.path.isfile(os.path.join(SRC, "segstore", "__init__.py")):
        sys.exit(f"error: no segstore package under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import segstore
    if os.path.dirname(os.path.dirname(os.path.abspath(segstore.__file__))) != SRC:
        sys.exit(f"error: segstore imported from {segstore.__file__}, not {SRC}")


_import_engine()

from segstore.bench import BenchEngine, oracle_volume_bytes  # noqa: E402
from segstore.errors import StorageError  # noqa: E402
from segstore.metrics import emit_csv  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.measures import setup_busy_us, virtual_metrics  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

_CSV_FILES = ("throughput.csv", "restore.csv", "latency_samples.csv")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Rep:
    """One timed set-up plus run of a workload, with its observations."""

    def __init__(self, wl, seed: int, workdir: str):
        self.wl = wl
        self.workdir = workdir
        t0 = time.perf_counter()
        self.engine = BenchEngine(wl.workload_config(seed), workdir,
                                  finish_restore=wl.finish_restore)
        self.setup_s = time.perf_counter() - t0
        self.setup_busy_us = setup_busy_us(self.engine.volume.device)
        self.devices = layers.device_counters(self.engine)
        self.log_writes0 = self.engine.wal.device.writes
        self.commit_us: list[float] = []
        self.chunk_marks: list[float] = []
        self.archive_steps = 0
        self.at_failure = None
        self.report = None

    def _hook(self) -> None:
        """Instance-level hooks: commit times for the warm window, the
        archiver's progress and the wall clock at the failure."""
        eng = self.engine
        commits = self.commit_us
        marks = self.chunk_marks
        record_txn = eng.report.record_txn
        clock = time.perf_counter

        def on_txn(txn_id, done_us, latency_us, post_failure):
            commits.append(done_us)
            record_txn(txn_id, done_us, latency_us, post_failure)
            if len(commits) % CHUNK_TXNS == 0:
                marks.append(clock())
        eng.report.record_txn = on_txn

        archive_step = eng.archiver.archive_step

        def on_archive_step(*args, **kwargs):
            self.archive_steps += 1
            return archive_step(*args, **kwargs)
        eng.archiver.archive_step = on_archive_step

        fail_device = eng.pool.fail_device

        def on_fail(*args, **kwargs):
            self.at_failure = self._progress(time.perf_counter())
            return fail_device(*args, **kwargs)
        eng.pool.fail_device = on_fail
        eng.pool.on_page_read = eng.report.record_page_read

    def _progress(self, wall: float) -> dict:
        eng = self.engine
        return {"wall": wall, "txns": eng.report.total_txns,
                "chunks": len(self.chunk_marks), "peak_rss_mb": _peak_rss_mb(),
                "archive_steps": self.archive_steps,
                "lag_bytes": eng.wal.end_lsn() - max(eng.archiver.consumed_lsn, 1)}

    def run(self, tracer: Tracer | None = None) -> None:
        if tracer is not None:
            tracer.install()
        try:
            self._hook()
            t0 = time.perf_counter()
            self.chunk_marks.append(t0)
            self.report = self.engine.run()
            t1 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.peak_rss_mb = _peak_rss_mb()
        self.run_s = t1 - t0
        self.t_run0 = t0
        if self.at_failure is None:
            self.at_failure = self._progress(t1)

    # -- results ----------------------------------------------------------------

    def t_fail_us(self) -> float | None:
        return self.report.failure_time_s * 1e6 if self.wl.has_failure else None

    def virtual(self) -> dict:
        return virtual_metrics(self.report, self.commit_us, self.setup_busy_us,
                               self.t_fail_us())

    def chunk_us(self) -> list[float]:
        """Wall µs per txn of each CHUNK_TXNS-commit chunk before the failure."""
        marks = self.chunk_marks[:self.at_failure["chunks"]]
        return [(b - a) / CHUNK_TXNS * 1e6 for a, b in zip(marks, marks[1:])]

    def wall(self) -> dict:
        """Wall-clock metrics.  The end-to-end ones cover the run up to the
        failure (the whole run without one), whose work does not depend on
        the seed; what follows the failure does, by up to 2x on regime."""
        return {
            "sim_us_per_txn": statistics.median(self.chunk_us()),
            "peak_rss_mb": self.at_failure["peak_rss_mb"],
            "sim_us_per_txn_run": self.run_s / max(self.report.total_txns, 1) * 1e6,
            "sim_s_after_failure": self.t_run0 + self.run_s - self.at_failure["wall"],
            "peak_rss_mb_run": self.peak_rss_mb,
        }

    def fingerprint(self) -> str:
        """sha256 over the emitted CSV set: the run's virtual outputs."""
        out = os.path.join(self.workdir, "csv")
        emit_csv(self.report, out)
        h = hashlib.sha256()
        for name in _CSV_FILES:
            with open(os.path.join(out, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
        return h.hexdigest()

    def invariant_failures(self) -> list[str]:
        bad = [f"invariant {k}" for k, ok in sorted(self.report.invariants.items())
               if not ok]
        if not self.report.valid:
            bad.append("report marked invalid")
        mgr = self.engine.manager
        if self.wl.has_failure and (mgr is None or not mgr.complete):
            bad.append("restore did not complete inside the run")
        return bad

    def volume_matches_oracle(self) -> bool:
        """Untimed: flush the pool, then compare the live volume (the
        replacement after a failure) with brute-force recovery."""
        self.engine.flush_all()
        oracle = memoryview(oracle_volume_bytes(self.engine.backup, self.engine.wal))
        chunk = 1 << 20
        with open(self.engine.final_volume().device.path, "rb") as f:
            for off in range(0, len(oracle), chunk):
                if f.read(chunk) != oracle[off:off + chunk]:
                    return False
            return f.read(1) == b""

    def close(self) -> None:
        self.engine.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _workdir(tag: str) -> str:
    path = os.path.join(WORK_DIR, f"{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def _checked_rep(wl, seed: int, tag: str, problems: list, tracer=None,
                 oracle: bool = False) -> Rep | None:
    """Set up and run one repetition; anything wrong lands in problems."""
    rep = None
    try:
        rep = Rep(wl, seed, _workdir(tag))
        rep.run(tracer)
        problems.extend(f"{tag}: {p}" for p in rep.invariant_failures())
        rep.digest = rep.fingerprint()
        if oracle and not rep.volume_matches_oracle():
            problems.append(f"{tag}: volume differs from brute-force recovery")
    except (StorageError, ValueError) as exc:
        problems.append(f"{tag}: {type(exc).__name__}: {exc}")
        if rep is not None:
            rep.close()
        return None
    return rep


def _print_metric(name: str, value, unit: str, better: str) -> None:
    print(f"{name:<34} {value:>16.6f} {unit:<8} ({better} is better)")


def run_end_to_end(wl, seed: int, seconds: float) -> dict:
    problems: list[str] = []
    walls, setups = [], []
    measured = 0.0
    first = None
    while first is None or measured < seconds:
        tag = f"rep{len(walls)}"
        rep = _checked_rep(wl, seed, tag, problems, oracle=first is None)
        if rep is None:
            break
        try:
            setups.append(rep.setup_s)
            measured += rep.run_s
            walls.append(rep.wall())
            virtual = rep.virtual()
            if first is None:
                report = rep.report
                first = {
                    "virtual": virtual,
                    "fingerprint": rep.digest,
                    "invariants": dict(report.invariants),
                    "txns": report.total_txns,
                    "post_samples": len(report.post_failure_latencies()),
                    "setup_busy_ms": rep.setup_busy_us / 1e3,
                    "archive_steps_online": rep.at_failure["archive_steps"],
                    "archive_lag_at_failure_bytes": rep.at_failure["lag_bytes"],
                    "chunk_us": rep.chunk_us(),
                }
            elif rep.digest != first["fingerprint"] or virtual != first["virtual"]:
                problems.append(f"{tag}: virtual outputs differ from rep0")
        finally:
            rep.close()
    if first is None:
        return {"problems": problems, "attempted": 1}
    while len(setups) < SETUP_SAMPLES:
        extra = Rep(wl, seed, _workdir(f"setup{len(setups)}"))
        setups.append(extra.setup_s)
        extra.close()

    wall = {k: statistics.median(w[k] for w in walls) for k in walls[0]}
    # ru_maxrss never falls, so only the first repetition's reading is its own.
    for k in ("peak_rss_mb", "peak_rss_mb_run"):
        wall[k] = walls[0][k]
    values = {"setup_s": statistics.median(setups), **wall, **first["virtual"]}
    return {"problems": problems, "attempted": first["txns"], "values": values,
            "repetitions": len(walls), "setup_samples": setups, **first}


def run_traced(wl, seed: int) -> dict:
    problems: list[str] = []
    plain = _checked_rep(wl, seed, "untraced", problems, oracle=True)
    if plain is None:
        return {"problems": problems, "attempted": 1}
    plain_virtual = plain.virtual()
    plain_wall = plain.wall()
    plain.close()
    tracer = Tracer()
    traced = _checked_rep(wl, seed, "traced", problems, tracer=tracer)
    if traced is None:
        return {"problems": problems, "attempted": plain.report.total_txns}
    if traced.digest != plain.digest or traced.virtual() != plain_virtual:
        problems.append("traced run's virtual outputs differ from the untraced run")
    values = layers.per_layer(traced, tracer, plain_wall)
    values.update({k: plain_virtual.get(k, 0.0) for k in layers.FROM_UNTRACED
                   if k not in values})
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"{wl.name}-seed{seed}-spans.csv"))
    traced.close()
    return {
        "problems": problems,
        "attempted": traced.report.total_txns,
        "values": values,
        "fingerprint": plain.digest,
        "self_times_s": dict(sorted(tracer.self_s.items(), key=lambda kv: -kv[1])),
        "calls": tracer.calls,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall seconds of runs to measure, at least one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    result = run_traced(wl, args.seed) if args.trace else \
        run_end_to_end(wl, args.seed, args.seconds)
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    problems = result["problems"]
    correct = not problems
    attempted = max(1, result["attempted"])
    declared = layers.PER_LAYER if args.trace else END_TO_END
    values = result.get("values", {})
    for name, (unit, better) in declared.items():
        if name in values:
            _print_metric(name, values[name], unit, better)
    if not args.trace:
        for name in layers.FROM_UNTRACED:
            if name in values:
                _print_metric(name, values[name], *layers.PER_LAYER[name])
        _print_metric("failed_frac", 0.0 if correct else 1.0, "ratio", "lower")
        for key in ("txns", "repetitions", "setup_busy_ms", "archive_steps_online",
                    "archive_lag_at_failure_bytes", "fingerprint"):
            if key in result:
                print(f"{key}: {result[key]}")
    if args.trace and "values" in result:
        wall = values["trace.wall_s"]
        print(f"traced wall {wall:.3f} s = bench.self_s + self times of:")
        for name, sec in result["self_times_s"].items():
            print(f"  {name:<28} {sec:10.4f} s {sec / wall:7.1%}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    os.makedirs(OUT_DIR, exist_ok=True)
    summary = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(summary, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in declared.items() if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted, "metrics": metrics}))
    return 0 if correct and len(metrics) == len(declared) else 1


if __name__ == "__main__":
    sys.exit(main())
