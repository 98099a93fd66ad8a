"""bench - drive the storage engine through failure-and-restore runs.

    bench run      one benchmark run with failure injection, CSVs to --out
    bench overhead archiving cost: sort+index vs plain copy, no failure
    bench verify   end-state equivalence against brute-force recovery and
                   a no-failure shadow run

Exit status is 0 only if every internal invariant held.
"""

import argparse
import sys

from .bench import measure_archiving_overhead, run_benchmark, verify_equivalence
from .errors import StorageError
from .metrics import percentiles
from .restore import Policy
from .workload import WorkloadConfig

_POLICIES = {p.value: p for p in Policy}


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Register the flags a subcommand reads: the workload's everywhere,
    --duration where the run is timed (verify counts transactions), the
    restore's where a failure is injected, and --fail-at and --out for run."""
    p.add_argument("--pages", type=int, default=4096, help="volume size in pages")
    p.add_argument("--page-size", type=int, default=8192, help="page size in bytes")
    p.add_argument("--segment-pages", type=int, default=128,
                   help="pages per restore segment")
    p.add_argument("--pool-pages", type=int, default=1024, help="buffer pool frames")
    p.add_argument("--threads", type=int, default=4, help="workload workers")
    p.add_argument("--skew", type=float, default=0.8, help="zipfian skew (0 = uniform)")
    p.add_argument("--run-limit", type=int, default=4096,
                   help="records per archive run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workset", type=int, default=None,
                   help="working-set pages (default: whole volume)")
    p.add_argument("--wall-clock", action="store_true",
                   help="pace the run against real time")
    if command != "verify":
        p.add_argument("--duration", type=float, default=30.0,
                       help="run length, simulated seconds")
    if command != "overhead":
        p.add_argument("--policy", choices=sorted(_POLICIES), default="preemptive")
        p.add_argument("--batch-cap", type=int, default=64,
                       help="max segments per preemptive batch")
    if command == "run":
        p.add_argument("--fail-at", type=float, default=10.0,
                       help="failure time, simulated seconds")
        p.add_argument("--out", default=None, help="directory for CSV output")


def _restore(args) -> dict:
    return dict(policy=_POLICIES[args.policy], batch_cap=args.batch_cap)


def _config(args, **kw) -> WorkloadConfig:
    return WorkloadConfig(
        page_count=args.pages,
        page_size=args.page_size,
        pages_per_segment=args.segment_pages,
        pool_pages=args.pool_pages,
        worker_threads=args.threads,
        skew=args.skew,
        run_size_limit=args.run_limit,
        seed=args.seed,
        working_set_pages=args.workset,
        wall_clock=args.wall_clock,
        **kw,
    )


def _cmd_run(args) -> int:
    config = _config(args, duration_s=args.duration, failure_time_s=args.fail_at,
                     **_restore(args), out_dir=args.out)
    report = run_benchmark(config)
    pre = report.pre_failure_latencies()
    post = report.post_failure_latencies()
    total_restored = sum(report.restored_bytes.values())
    print(f"transactions: {report.total_txns}")
    for name, lat in (("pre", pre), ("post", post)):
        if lat:
            p50, p99, p999 = percentiles(lat, (0.5, 0.99, 0.999))
            print(f"{name}-failure latency: mean {sum(lat) / len(lat):.1f} us, p50 {p50:.1f} us, "
                  f"p99 {p99:.1f} us, p999 {p999:.1f} us, max {max(lat):.1f} us")
    print(f"restored: {total_restored} bytes over "
          f"{len(report.restore_events)} restore batches")
    if config.out_dir:
        print(f"csv written to {config.out_dir}")
    for name, ok in sorted(report.invariants.items()):
        print(f"invariant {name}: {'ok' if ok else 'VIOLATED'}")
    return 0 if report.valid else 1


def _cmd_overhead(args) -> int:
    config = _config(args, duration_s=args.duration, failure_time_s=None)
    result = measure_archiving_overhead(config)
    print(f"sorted+indexed archiving: {result['sorted_indexed_tps']:.1f} txn/s median")
    print(f"plain copy archiving:     {result['plain_copy_tps']:.1f} txn/s median")
    print(f"overhead ratio:           {result['overhead_ratio']:.4f}")
    return 0


def _cmd_verify(args) -> int:
    # Count mode: the failure lands once every worker has run its
    # pre-failure transactions, whatever the config's failure time.
    config = _config(args, **_restore(args))
    result = verify_equivalence(config)
    print(f"oracle byte equality:   {'PASS' if result['oracle_match'] else 'FAIL'}")
    print(f"shadow-run equivalence: {'PASS' if result['shadow_match'] else 'FAIL'}")
    print(f"restore completed:      {'PASS' if result['restore_complete'] else 'FAIL'}")
    for name, ok in sorted(result["invariants"].items()):
        print(f"invariant {name}: {'ok' if ok else 'VIOLATED'}")
    return 0 if result["ok"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("overhead", _cmd_overhead),
                     ("verify", _cmd_verify)):
        p = sub.add_parser(name)
        _add_flags(p, name)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (StorageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
