"""Benchmark metric collection and CSV emission.

Three CSV files per run:

    throughput.csv       t_sec, txns, mean_latency_us, max_latency_us, page_reads
    restore.csv          t_sec, bytes_restored, batch_size_mean, queue_depth
    latency_samples.csv  txn_id, latency_us, post_failure

The per-second series always has exactly one row per second of the
configured duration, empty seconds and a last, partial second included;
the last row also holds the transactions that commit, and the restore
batches that complete, after the duration.

Each transaction's sample is 17 B in three typed columns: txn_ids (array
"q"), latencies_us (array "d") and post_flags (bytearray of 0/1), read back
through latency_samples, a view of (txn_id, latency_us, post_failure) tuples.
"""

import csv
import math
import operator
import os
from array import array
from dataclasses import dataclass, field


class LatencySamples:
    """The sample columns of a report, in recording order."""

    def __init__(self, report: "MetricsReport"):
        self._r = report

    def __len__(self) -> int:
        return len(self._r.txn_ids)

    def __getitem__(self, i: int) -> tuple[int, float, bool]:
        return self._r.txn_ids[i], self._r.latencies_us[i], bool(self._r.post_flags[i])

    def __iter__(self):
        return zip(self._r.txn_ids, self._r.latencies_us, map(bool, self._r.post_flags))


@dataclass
class MetricsReport:
    duration_s: float
    failure_time_s: float | None
    txns: dict = field(default_factory=dict)           # sec -> count
    lat_sum: dict = field(default_factory=dict)        # sec -> us
    lat_max: dict = field(default_factory=dict)        # sec -> us
    page_reads: dict = field(default_factory=dict)     # sec -> count
    restored_bytes: dict = field(default_factory=dict)  # sec -> bytes
    batch_sizes: dict = field(default_factory=dict)    # sec -> [sizes]
    queue_depths: dict = field(default_factory=dict)   # sec -> max depth seen
    txn_ids: array = field(default_factory=lambda: array("q"))
    latencies_us: array = field(default_factory=lambda: array("d"))
    post_flags: bytearray = field(default_factory=bytearray)
    restore_events: list = field(default_factory=list)   # (t_start, t_done, first, count, bytes)
    restore_begin_us: float | None = None
    restore_end_us: float | None = None
    invariants: dict = field(default_factory=dict)
    valid = property(lambda self: all(self.invariants.values()))
    latency_samples = property(LatencySamples)  # (txn_id, us, post_failure) tuples
    total_txns = property(lambda self: len(self.txn_ids))

    # -- recording ------------------------------------------------------------

    def record_txn(self, txn_id: int, done_us: float, latency_us: float,
                   post_failure: bool) -> None:
        sec = int(done_us // 1_000_000)
        self.txns[sec] = self.txns.get(sec, 0) + 1
        self.lat_sum[sec] = self.lat_sum.get(sec, 0.0) + latency_us
        self.lat_max[sec] = max(self.lat_max.get(sec, 0.0), latency_us)
        self.txn_ids.append(txn_id)
        self.latencies_us.append(latency_us)
        self.post_flags.append(post_failure)

    def record_page_read(self, t_us: float) -> None:
        sec = int(t_us // 1_000_000)
        self.page_reads[sec] = self.page_reads.get(sec, 0) + 1

    def record_restore(self, t_start: float, t_done: float, first: int,
                       count: int, nbytes: int, qdepth: int) -> None:
        sec = int(t_done // 1_000_000)
        self.restored_bytes[sec] = self.restored_bytes.get(sec, 0) + nbytes
        self.batch_sizes.setdefault(sec, []).append(count)
        self.queue_depths[sec] = max(self.queue_depths.get(sec, 0), qdepth)
        self.restore_events.append((t_start, t_done, first, count, nbytes))

    def mark_invariant(self, name: str, ok: bool) -> None:
        self.invariants[name] = self.invariants.get(name, True) and ok

    # -- series views ------------------------------------------------------------

    def seconds(self) -> range:
        return range(math.ceil(self.duration_s))

    def _per_row(self, series: dict, zero, combine=operator.add) -> list:
        """series as one value per row; seconds past the last row fold into it."""
        rows = [zero] * len(self.seconds())
        for sec, value in series.items():
            if rows:
                last = min(sec, len(rows) - 1)
                rows[last] = combine(rows[last], value)
        return rows

    def throughput_rows(self) -> list[tuple]:
        return [(sec, n, round(total / n if n else 0.0, 3), round(worst, 3), reads)
                for sec, n, total, worst, reads in zip(
                    self.seconds(), self.per_second_txns(),
                    self._per_row(self.lat_sum, 0.0), self._per_row(self.lat_max, 0.0, max),
                    self._per_row(self.page_reads, 0))]

    def restore_rows(self) -> list[tuple]:
        return [(sec, nbytes, round(sum(sizes) / len(sizes) if sizes else 0.0, 3), depth)
                for sec, nbytes, sizes, depth in zip(
                    self.seconds(), self._per_row(self.restored_bytes, 0),
                    self._per_row(self.batch_sizes, []),
                    self._per_row(self.queue_depths, 0, max))]

    def per_second_txns(self) -> list[int]:
        return self._per_row(self.txns, 0)

    def post_failure_latencies(self) -> list[float]:
        return [lat for lat, post in zip(self.latencies_us, self.post_flags) if post]

    def pre_failure_latencies(self) -> list[float]:
        return [lat for lat, post in zip(self.latencies_us, self.post_flags) if not post]


def emit_csv(report: MetricsReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "throughput.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_sec", "txns", "mean_latency_us", "max_latency_us", "page_reads"])
        w.writerows(report.throughput_rows())
    with open(os.path.join(out_dir, "restore.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_sec", "bytes_restored", "batch_size_mean", "queue_depth"])
        w.writerows(report.restore_rows())
    with open(os.path.join(out_dir, "latency_samples.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["txn_id", "latency_us", "post_failure"])
        for txn_id, lat, post in report.latency_samples:
            w.writerow([txn_id, round(lat, 3), int(post)])


def load_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def percentile(values: list[float], p: float) -> float:
    return percentiles(values, (p,))[0]


def percentiles(values: list[float], ps) -> list[float]:
    """The value at each fraction in ps, from one sort of values."""
    ordered = sorted(values) or [0.0]
    last = len(ordered) - 1
    return [ordered[min(last, max(0, int(round(p * last))))] for p in ps]
