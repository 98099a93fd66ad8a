"""The benchmark's three workloads.

Each keeps the geometry of one acceptance criterion, so its numbers line
up with C4, C5 and C6.  All three are closed loops: a simulated client
issues its next transaction only after the previous one commits, plus
think time.  The clients are coroutines stepped by one OS thread.  The
WAL flush policy is the engine's default, flush_interval=0: one log
write per append, on every workload.
"""

from dataclasses import dataclass

from segstore.restore import Policy
from segstore.workload import WorkloadConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    finish_restore: bool

    def workload_config(self, seed: int) -> WorkloadConfig:
        return WorkloadConfig(**self.config, seed=seed)

    @property
    def has_failure(self) -> bool:
        return self.config.get("failure_time_s") is not None


# C6's REGIME at pool 1024 (25% of the 4096-page working set).  The run
# lasts 40 virtual s so that restore (15-30 s after the failure, by seed)
# ends inside it.
REGIME = Workload(
    name="regime",
    why=("C6 REGIME, closed loop of 4 clients, pool 1024 = 25% of the 4096-page "
         "working set, preemptive restore of 8-page segments: probe, page "
         "encoding, eviction and cleaner all run hard"),
    config=dict(page_count=8192, page_size=8192, pages_per_segment=8,
                pool_pages=1024, worker_threads=4, duration_s=40.0,
                failure_time_s=6.0, policy=Policy.PREEMPTIVE,
                run_size_limit=4096, skew=0.8, batch_cap=16,
                working_set_pages=4096, txn_think_us=600.0, op_think_us=25.0,
                cleaner_interval_us=20_000.0, cleaner_batch=128,
                db_latency=(5.0, 0.0002), backup_latency=(1200.0, 0.004),
                archive_latency=(1200.0, 0.004)),
    finish_restore=False,
)

# C4's DESK on-demand: 256 MiB volume, 1 MiB segments, pool 16384 = 50% of
# the volume-wide working set, no cleaner; the segments nobody demanded
# are drained after the workers stop.  12 virtual s (C4 runs 20) keep over
# 10k post-failure samples, enough for a p999.
DESK = Workload(
    name="desk",
    why=("C4 DESK on-demand, closed loop of 8 clients, 256 MiB volume, 1 MiB "
         "segments, pool 16384 = 50% of the working set: big demand restores, "
         "largest set-up, restore a small share of wall"),
    config=dict(page_count=32768, page_size=8192, pages_per_segment=128,
                pool_pages=16384, worker_threads=8, duration_s=12.0,
                failure_time_s=6.0, policy=Policy.ON_DEMAND,
                run_size_limit=4096, skew=0.8),
    finish_restore=True,
)

# C5's SHAPE geometry with a pool that holds the 4096-page hot set and no
# failure: no restore, no probe, no eviction.  8 virtual s (C5 runs 12)
# give a 6-s warm window of about 55k transactions.
STEADY = Workload(
    name="steady",
    why=("C5 SHAPE geometry, closed loop of 6 clients, pool 4608 holds the "
         "4096-page hot set, no failure: no restore, probe or eviction, only "
         "the transaction path and archiving cost"),
    config=dict(page_count=8192, page_size=8192, pages_per_segment=32,
                pool_pages=4608, worker_threads=6, duration_s=8.0,
                failure_time_s=None, run_size_limit=4096, skew=0.8,
                batch_cap=64, working_set_pages=4096, scramble_pages=False,
                db_latency=(100.0, 0.008), backup_latency=(100.0, 0.008),
                archive_latency=(150.0, 0.008)),
    finish_restore=False,
)

WORKLOADS = {w.name: w for w in (REGIME, DESK, STEADY)}
