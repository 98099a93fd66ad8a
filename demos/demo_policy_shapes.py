#!/usr/bin/env python3
"""One failure, three scheduling policies: pure on-demand, the adaptive
preemptive sweep, and a single sequential pass.  Same end state, very
different restore timelines.

Run:  python demos/demo_policy_shapes.py   (takes a few seconds)
"""

import tempfile
from contextlib import closing

from segstore import Policy, WorkloadConfig
from segstore.bench import BenchEngine, volume_file_bytes
from segstore.metrics import percentile

# One worker and a fixed transaction budget: the logged history is then
# identical across policies, so even the final volume bytes must agree.
BASE = dict(page_count=2048, page_size=8192, pages_per_segment=32,
            pool_pages=512, worker_threads=1, duration_s=60.0,
            failure_time_s=3.0, txns_per_worker=(1500, 1500),
            run_size_limit=2048, seed=5, skew=0.8)

volumes = {}
for policy in Policy:
    cfg = WorkloadConfig(policy=policy, **BASE)
    with (tempfile.TemporaryDirectory(prefix=f"segstore-demo-{policy.value}-") as workdir,
          closing(BenchEngine(cfg, workdir, finish_restore=True)) as engine):
        report = engine.run()
        engine.flush_all()
        post = report.post_failure_latencies()
        span = (report.restore_end_us - report.restore_begin_us) / 1e6
        batches = [e[3] for e in report.restore_events]
        print(f"{policy.value:>10}: restore span {span:6.2f}s in {len(batches):3d} "
              f"batches (max {max(batches):2d} segments)  "
              f"post-failure p99 latency {percentile(post, 0.99) / 1000:7.1f} ms")
        volumes[policy] = volume_file_bytes(engine.replacement.device.path)

same = len(set(volumes.values())) == 1
print(f"\nfinal replacement volumes byte-identical across policies: {same}")
