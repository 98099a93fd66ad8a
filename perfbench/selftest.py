"""Self-test of the benchmark at a tiny geometry (a few seconds).

    python3 perfbench/selftest.py

Checks that every declared metric is emitted with the unit and direction
BENCHMARK.json gives it, that two runs at one seed give identical virtual
metrics and CSV fingerprints, that the traced self times add up to the
traced wall time, and that the correctness gate can fail: one flipped
byte in the restored volume must make the oracle comparison fail.
Exit status 0 means every check passed.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import run  # noqa: E402  (run puts src/ on the path)
from perfbench import layers  # noqa: E402
from perfbench.workloads import Workload  # noqa: E402
from segstore.restore import Policy  # noqa: E402

_TINY = dict(page_count=256, page_size=1024, pages_per_segment=8, pool_pages=64,
             worker_threads=4, duration_s=4.0, skew=0.8, run_size_limit=512,
             batch_cap=4, txn_think_us=2000.0)
TINY_FAIL = Workload("tiny-fail", "self-test", {**_TINY, "failure_time_s": 2.0,
                                                "policy": Policy.PREEMPTIVE}, False)
TINY_STEADY = Workload("tiny-steady", "self-test", {**_TINY, "failure_time_s": None},
                       False)
SEED = 5


def _check(failures: list, ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _declared() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    per = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    return e2e, per


def main() -> int:
    failures: list[str] = []
    e2e, per = _declared()
    _check(failures, e2e == run.END_TO_END,
           "BENCHMARK.json end_to_end matches the emitted names, units, directions")
    _check(failures, per == layers.PER_LAYER,
           "BENCHMARK.json per_layer matches the emitted names, units, directions")

    for wl in (TINY_FAIL, TINY_STEADY):
        a = run.run_end_to_end(wl, SEED, 0.0)
        b = run.run_end_to_end(wl, SEED, 0.0)
        _check(failures, not a["problems"] and not b["problems"],
               f"{wl.name}: correctness checks pass {a['problems'] + b['problems']}")
        _check(failures, set(run.END_TO_END) <= set(a["values"]),
               f"{wl.name}: every end-to-end metric is emitted")
        _check(failures, a["virtual"] == b["virtual"],
               f"{wl.name}: same seed, identical virtual metrics")
        _check(failures, a["fingerprint"] == b["fingerprint"],
               f"{wl.name}: same seed, identical CSV fingerprint")

        t = run.run_traced(wl, SEED)
        _check(failures, not t["problems"], f"{wl.name}: traced run checks pass")
        _check(failures, set(layers.PER_LAYER) <= set(t["values"]),
               f"{wl.name}: every per-layer metric is emitted")
        _check(failures, t["fingerprint"] == a["fingerprint"],
               f"{wl.name}: traced and untraced fingerprints agree")
        v = t["values"]
        total = sum(t["self_times_s"].values()) + v["bench.self_s"]
        _check(failures, abs(total - v["trace.wall_s"]) < 1e-6,
               f"{wl.name}: self times plus bench.self_s add up to the traced wall")

    rep = run.Rep(TINY_FAIL, SEED, run._workdir("selftest"))
    try:
        rep.run()
        _check(failures, rep.volume_matches_oracle(),
               "unmodified restored volume matches brute-force recovery")
        path = rep.engine.final_volume().device.path
        offset = os.path.getsize(path) // 2
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0x01]))
        _check(failures, not rep.volume_matches_oracle(),
               "one flipped byte in the restored volume fails the check")
    finally:
        rep.close()

    print("selftest:", "PASS" if not failures else f"FAIL ({len(failures)})")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
