import gc
import os
import random
import warnings

import pytest

from segstore import failpoints
from segstore.errors import ArchiveError, CorruptRunError, CrashInjected
from segstore.runfile import RunReader, parse_run_name, run_name, write_run
from segstore.wal import OP_SET, LogRecord

from conftest import value_bytes


def make_records(rng, n, npages, base_lsn=1):
    recs = []
    lsn = base_lsn
    for i in range(n):
        rec = LogRecord(lsn, rng.randrange(npages), 1, 0, OP_SET, i % 8, value_bytes(i))
        recs.append(rec)
        lsn = rec.next_lsn
    return recs, lsn


def sorted_records(recs):
    return sorted(recs, key=lambda r: (r.page_id, r.lsn))


def test_run_name_round_trip():
    assert parse_run_name(run_name(0, 500)) == (0, 500)
    assert parse_run_name("archive_1_2.run.tmp") is None
    assert parse_run_name("backup_3.img") is None
    assert parse_run_name("archive_x_2.run") is None


def test_write_read_round_trip(workdir):
    rng = random.Random(1)
    recs, end = make_records(rng, 500, npages=40)
    path = write_run(workdir, 0, end, sorted_records(recs), block_size=512)
    run = RunReader(path)
    assert (run.begin_lsn, run.end_lsn, run.record_count) == (0, end, 500)
    back, _ = run.scan_all()
    assert back == sorted_records(recs)
    # bloom covers exactly the touched pages, no false negatives
    touched = {r.page_id for r in recs}
    assert all(run.bloom.might_contain(p) for p in touched)


def test_block_index_probes_match_full_scan(workdir):
    rng = random.Random(2)
    recs, end = make_records(rng, 2000, npages=100)
    path = write_run(workdir, 0, end, sorted_records(recs), block_size=512)
    run = RunReader(path)
    full, _ = run.scan_all()
    for _ in range(200):
        a = rng.randrange(100)
        b = rng.randrange(a, 100)
        min_lsn = rng.randrange(end + 10)
        got, _ = run.scan_range(a, b, min_lsn)
        want = [r for r in full if a <= r.page_id <= b and r.lsn >= min_lsn]
        assert got == want


def test_out_of_order_records_rejected(workdir):
    recs = [LogRecord(1, 5, 1, 0, OP_SET, 0, value_bytes(0)),
            LogRecord(100, 3, 1, 0, OP_SET, 0, value_bytes(1))]
    with pytest.raises(ArchiveError):
        write_run(workdir, 0, 200, recs)
    assert os.listdir(workdir) == []  # nothing published, tmp cleaned up


def test_lsn_outside_range_rejected(workdir):
    recs = [LogRecord(500, 5, 1, 0, OP_SET, 0, value_bytes(0))]
    with pytest.raises(ArchiveError):
        write_run(workdir, 0, 100, recs)


def test_crash_before_rename_publishes_nothing(workdir):
    rng = random.Random(3)
    recs, end = make_records(rng, 50, npages=10)
    failpoints.arm("run:pre_rename")
    with pytest.raises(CrashInjected):
        write_run(workdir, 0, end, sorted_records(recs))
    assert os.listdir(workdir) == []
    # retry after the "crash" succeeds
    path = write_run(workdir, 0, end, sorted_records(recs))
    assert os.path.exists(path)


def test_corruption_detected_on_open(workdir):
    rng = random.Random(4)
    recs, end = make_records(rng, 50, npages=10)
    path = write_run(workdir, 0, end, sorted_records(recs))
    with open(path, "r+b") as f:
        f.seek(60)
        f.write(b"\xde\xad")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CorruptRunError):
            RunReader(path)
        gc.collect()
    # the rejected run's file was closed, not left to the garbage collector
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)
                and path in str(w.message)]


def test_oversized_record_rejected(workdir):
    recs = [LogRecord(1, 0, 1, 0, OP_SET, 0, value_bytes(0))]
    with pytest.raises(ArchiveError):
        write_run(workdir, 0, 100, recs, block_size=16)


def test_empty_run(workdir):
    path = write_run(workdir, 10, 10, [])
    run = RunReader(path)
    assert run.record_count == 0
    assert run.scan_all()[0] == []
    assert run.scan_range(0, 100)[0] == []
