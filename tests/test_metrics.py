import csv
import os
import random
import tracemalloc

from segstore.metrics import MetricsReport, emit_csv, load_csv, percentile, percentiles
from segstore.pages import Page, page_capacity

from conftest import value_bytes


def test_empty_report_emits_headers_and_rows(workdir):
    report = MetricsReport(duration_s=5, failure_time_s=2)
    emit_csv(report, workdir)
    tput = load_csv(os.path.join(workdir, "throughput.csv"))
    rest = load_csv(os.path.join(workdir, "restore.csv"))
    lat = load_csv(os.path.join(workdir, "latency_samples.csv"))
    assert len(tput) == 5 and len(rest) == 5 and lat == []
    assert list(tput[0].keys()) == ["t_sec", "txns", "mean_latency_us",
                                    "max_latency_us", "page_reads"]
    assert list(rest[0].keys()) == ["t_sec", "bytes_restored",
                                    "batch_size_mean", "queue_depth"]


def test_round_trip_reproduces_series(workdir):
    report = MetricsReport(duration_s=3, failure_time_s=1)
    report.record_txn(1, 500_000, 120.0, False)
    report.record_txn(2, 700_000, 80.0, False)
    report.record_txn(3, 1_500_000, 9000.0, True)
    report.record_page_read(600_000)
    report.record_restore(1_100_000, 1_200_000, first=4, count=2,
                          nbytes=16384, qdepth=3)
    emit_csv(report, workdir)

    tput = load_csv(os.path.join(workdir, "throughput.csv"))
    assert [int(r["txns"]) for r in tput] == [2, 1, 0]
    assert float(tput[0]["mean_latency_us"]) == 100.0
    assert float(tput[0]["max_latency_us"]) == 120.0
    assert [int(r["page_reads"]) for r in tput] == [1, 0, 0]

    rest = load_csv(os.path.join(workdir, "restore.csv"))
    assert [int(r["bytes_restored"]) for r in rest] == [0, 16384, 0]
    assert float(rest[1]["batch_size_mean"]) == 2.0
    assert int(rest[1]["queue_depth"]) == 3

    lat = load_csv(os.path.join(workdir, "latency_samples.csv"))
    assert len(lat) == 3
    assert [int(r["post_failure"]) for r in lat] == [0, 0, 1]


def test_late_restore_batches_fold_into_the_last_row(workdir):
    """A batch that completes at or after the last row's second lands in
    that row, as a late transaction does: bytes add, batch sizes join the
    row's mean and queue depth keeps the row's maximum."""
    report = MetricsReport(duration_s=2, failure_time_s=1)
    report.record_restore(1_000_000, 1_500_000, first=0, count=2, nbytes=200, qdepth=3)
    report.record_restore(1_500_000, 2_000_000, first=2, count=4, nbytes=400, qdepth=7)
    report.record_restore(2_000_000, 9_100_000, first=6, count=3, nbytes=300, qdepth=1)
    assert report.restore_rows() == [(0, 0, 0.0, 0), (1, 900, 3.0, 7)]
    emit_csv(report, workdir)
    rest = load_csv(os.path.join(workdir, "restore.csv"))
    assert sum(int(r["bytes_restored"]) for r in rest) == 900


def test_invariant_marking():
    report = MetricsReport(duration_s=1, failure_time_s=None)
    report.mark_invariant("a", True)
    assert report.valid
    report.mark_invariant("a", False)
    assert not report.valid and report.invariants == {"a": False}


def test_percentile():
    vals = [float(v) for v in range(1, 101)]
    assert percentile(vals, 0.0) == 1.0
    assert percentile(vals, 1.0) == 100.0
    assert abs(percentile(vals, 0.99) - 99.0) <= 1.0
    assert percentile([], 0.5) == 0.0
    ps = (0.0, 0.5, 0.99, 0.999, 1.0)
    shuffled = random.Random(3).sample(vals, len(vals))
    assert percentiles(shuffled, ps) == [percentile(vals, p) for p in ps]
    assert percentiles([], ps) == [0.0] * len(ps)


def test_memory_retained_per_txn_is_small():
    """A committed transaction leaves 17 B in typed columns, not a tuple
    of three objects."""
    report = MetricsReport(duration_s=10, failure_time_s=5)
    n = 50_000
    ids = [7 * 10 ** 9 + i for i in range(n)]
    lats = [100.0 + i / 7 for i in range(n)]
    report.record_txn(0, 0.0, 1.0, False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            report.record_txn(ids[i], i * 100.0, lats[i], i >= n // 2)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.total_txns == n + 1
    assert grown / n <= 24, f"{grown / n:.1f} B retained per transaction"


def _retained_bytes(build) -> int:
    """Bytes allocated by build() and still held when it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_memory_retained_per_page_record_is_small():
    """A resident page keeps a record as its 20-byte entry plus a 4-byte
    key, whether the page was decoded or grown by set.  An empty page, new
    or emptied by delete, has no record containers of its own, so it
    takes at most the 120 B of a page object with an empty dict."""
    npages, nrec = 200, 25
    cap = page_capacity(4096)
    ids = list(range(10 ** 6, 10 ** 6 + npages))
    keys = random.Random(5).sample(range(10 ** 4), nrec)
    image = Page(7, 1, {k: value_bytes(k) for k in keys}).to_bytes(4096)
    pages = [None] * npages

    def empty():
        for i, pid in enumerate(ids):
            pages[i] = Page(pid)

    def emptied():
        for i, pid in enumerate(ids):
            page = Page(pid)
            page.set(1, value_bytes(i), cap)
            page.delete(1)
            pages[i] = page

    def grown():
        for i, pid in enumerate(ids):
            page = Page(pid)
            for k in keys:
                page.set(k, value_bytes(k + i), cap)
            pages[i] = page

    def decoded():
        for i in range(npages):
            pages[i] = Page.from_bytes(image)

    per_empty = _retained_bytes(empty) / npages
    assert per_empty <= 120, f"{per_empty:.1f} B retained per empty page"
    assert _retained_bytes(emptied) / npages <= per_empty
    for build in (grown, decoded):
        per_record = (_retained_bytes(build) / npages - per_empty) / nrec
        assert per_record <= 32, f"{build.__name__}: {per_record:.1f} B retained per record"


def test_sample_view_is_exact(workdir):
    """The view gives back exactly what was recorded: the same ids, the
    same doubles bit for bit and bool flags, in order; the CSV and the
    pre/post split are what a plain list of those tuples gives."""
    rng = random.Random(8)
    samples = []
    for n in range(2000):
        txn_id = rng.choice([rng.randrange(2 ** 63), rng.randrange(16) * 10 ** 9 + n, n])
        lat = rng.choice([rng.uniform(0, 2e5), rng.expovariate(1e-3), 0.1 + n, 0.0])
        samples.append((txn_id, lat, n >= 1200))
    report = MetricsReport(duration_s=2, failure_time_s=1)
    for txn_id, lat, post in samples:
        report.record_txn(txn_id, 500_000 + 1_000_000 * post, lat, post)

    view = report.latency_samples
    assert len(view) == report.total_txns == len(samples)
    got = list(view)
    assert [(i, lat.hex(), p) for i, lat, p in got] == \
        [(i, lat.hex(), p) for i, lat, p in samples]
    assert all(type(p) is bool for _, _, p in got)
    for i in (0, 1199, 1200, -1, -len(samples)):
        assert view[i] == samples[i] and view[i][1].hex() == samples[i][1].hex()

    emit_csv(report, workdir)
    plain = os.path.join(workdir, "plain.csv")
    with open(plain, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["txn_id", "latency_us", "post_failure"])
        for txn_id, lat, post in samples:
            w.writerow([txn_id, round(lat, 3), int(post)])
    with open(os.path.join(workdir, "latency_samples.csv"), "rb") as a, open(plain, "rb") as b:
        assert a.read() == b.read()

    assert report.pre_failure_latencies() == [lat for _, lat, p in samples if not p]
    assert report.post_failure_latencies() == [lat for _, lat, p in samples if p]
