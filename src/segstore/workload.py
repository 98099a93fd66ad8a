"""Synthetic skewed page-update workload.

Page accesses draw from a zipfian distribution by inverse CDF (exact for
any skew, including 1.0; skew 0 degenerates to uniform) and ranks are
scrambled through a multiplicative permutation so the hot set is spread
across segments instead of sitting in the first few.  Each worker writes
its own key stripe, which makes the final database state independent of
how worker transactions interleave - the property the shadow-run oracle
relies on.
"""

import functools
import itertools
import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass

from .archive import ARCHIVE_MODES
from .pages import VALUE_LEN, page_capacity
from .restore import Policy
from .wal import OP_DELETE, OP_SET

OPS_PER_TXN = (1, 8)  # updates per transaction, inclusive range


@functools.lru_cache(maxsize=8)
def _zipf_cdf(n: int, theta: float) -> array:
    """Rank CDF of zipf(theta) over [0, n), packed 8 bytes a rank; every
    generator with the same (n, theta) shares one, so no caller may modify
    it.  Streamed twice over the ranks so no list of weights is built."""
    total = math.fsum(1.0 / (i + 1) ** theta for i in range(n))
    cdf = array("d", itertools.accumulate(1.0 / (i + 1) ** theta / total for i in range(n)))
    cdf[-1] = 1.0
    return cdf


class ZipfianGenerator:
    """rank ~ zipf(theta) over [0, n); draw() maps ranks through a
    multiplicative permutation of [0, domain) so the n hot ids scatter
    over the whole domain (domain defaults to n)."""

    def __init__(self, n: int, theta: float, domain: int | None = None,
                 scramble: bool = True):
        if n <= 0:
            raise ValueError("need a positive domain")
        if theta < 0:
            raise ValueError("skew must be >= 0")
        self.n = n
        self.domain = domain or n
        if self.domain < n:
            raise ValueError("domain smaller than rank space")
        self.theta = theta
        self._cdf = _zipf_cdf(n, theta)
        self._mult = 1
        if scramble and self.domain > 2:
            self._mult = 2654435761 % self.domain
            while math.gcd(self._mult, self.domain) != 1:
                self._mult = (self._mult + 1) % self.domain or 1

    def rank(self, rng: random.Random) -> int:
        return bisect_right(self._cdf, rng.random())

    def draw(self, rng: random.Random) -> int:
        return (self.rank(rng) * self._mult) % self.domain

    def mass_of_top(self, fraction: float) -> float:
        """CDF mass of the hottest ceil(fraction * n) ranks."""
        k = max(1, math.ceil(fraction * self.n))
        return self._cdf[min(k, self.n) - 1]


@dataclass
class WorkloadConfig:
    page_count: int = 32768
    page_size: int = 8192
    pages_per_segment: int = 128
    pool_pages: int = 8192
    worker_threads: int = 8
    skew: float = 0.8
    duration_s: float = 60.0
    failure_time_s: float | None = 10.0
    policy: Policy = Policy.PREEMPTIVE
    run_size_limit: int = 4096
    seed: int = 1
    working_set_pages: int | None = None  # None: whole volume
    scramble_pages: bool = True  # False: hot pages cluster in low segments
    txns_per_worker: tuple[int, int] | None = None  # (pre-failure, post) count mode
    batch_cap: int = 64
    archive_mode: str = "sorted"
    # background page cleaner; 0 disables it
    cleaner_interval_us: float = 0.0
    cleaner_batch: int = 64
    txn_think_us: float = 30.0
    op_think_us: float = 5.0
    wall_clock: bool = False
    out_dir: str | None = None
    # device latency knobs (fixed us, per-byte us)
    db_latency: tuple[float, float] = (100.0, 0.004)
    archive_latency: tuple[float, float] = (150.0, 0.004)
    backup_latency: tuple[float, float] = (100.0, 0.004)

    def validate(self) -> None:
        for name in ("page_count", "page_size", "pages_per_segment", "pool_pages",
                     "worker_threads", "run_size_limit", "batch_cap", "duration_s",
                     "cleaner_batch"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("skew", "txn_think_us", "op_think_us", "cleaner_interval_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.txns_per_worker is not None and min(self.txns_per_worker) < 0:
            raise ValueError("txns_per_worker counts must be >= 0")
        if self.archive_mode not in ARCHIVE_MODES:
            raise ValueError(f"unknown archive_mode {self.archive_mode!r}")
        if self.failure_time_s is not None and not 0 <= self.failure_time_s < self.duration_s:
            raise ValueError("failure_time must fall inside the run duration")
        if self.failure_time_s is not None and self.archive_mode == "copy":
            raise ValueError("copy-mode archives cannot serve a restore")
        ws = self.working_set()
        if not 1 <= ws <= self.page_count:
            raise ValueError("working set must fit in the volume")
        cap = page_capacity(self.page_size)
        if self.worker_threads > cap:
            raise ValueError("more workers than key slots per page")

    def working_set(self) -> int:
        return self.page_count if self.working_set_pages is None else self.working_set_pages

    def key_slots_per_worker(self) -> int:
        budget = min(page_capacity(self.page_size), 64)
        return max(1, budget // self.worker_threads)


class WorkerStream:
    """Deterministic per-worker source of transactions.

    Keys are striped by worker id (key % workers == worker id), so two
    workers never write the same (page, key) pair and the final logical
    state is interleaving-independent.  Values encode (worker, op counter)
    and pad to the fixed record width.
    """

    def __init__(self, config: WorkloadConfig, worker_id: int):
        self.config = config
        self.worker_id = worker_id
        self.rng = random.Random((config.seed << 8) ^ (worker_id * 0x9E3779B1 + 1))
        self.zipf = ZipfianGenerator(config.working_set(), config.skew,
                                     domain=config.page_count,
                                     scramble=config.scramble_pages)
        self.slots = config.key_slots_per_worker()
        self.op_counter = 0

    def next_txn(self) -> list[tuple[int, int, int, bytes]]:
        """One transaction: list of (page_id, op, key, value) updates."""
        nops = self.rng.randint(*OPS_PER_TXN)
        ops = []
        for _ in range(nops):
            page_id = self.zipf.draw(self.rng)
            slot = self.rng.randrange(self.slots)
            key = self.worker_id + self.config.worker_threads * slot
            if self.rng.random() < 0.10:
                ops.append((page_id, OP_DELETE, key, b""))
            else:
                self.op_counter += 1
                value = (self.worker_id.to_bytes(4, "little")
                         + self.op_counter.to_bytes(8, "little"))
                ops.append((page_id, OP_SET, key, value.ljust(VALUE_LEN, b"\0")))
        return ops
