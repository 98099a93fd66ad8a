import gc
import os
import random
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segstore import failpoints
from segstore.device import Device, DeviceRole
from segstore.errors import ArchiveError, CorruptRunError, CrashInjected
from segstore.runfile import READ_CHUNK, RunReader, parse_run_name, run_name, write_run
from segstore.wal import OP_SET, LogRecord

from conftest import run_blocks, value_bytes


def make_records(rng, n, npages, base_lsn=1):
    recs = []
    lsn = base_lsn
    for i in range(n):
        rec = LogRecord(lsn, rng.randrange(npages), OP_SET, i % 8, value_bytes(i))
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
    path = write_run(workdir, 0, end, sorted_records(recs), len(recs), block_size=512)
    run = RunReader(path)
    assert (run.begin_lsn, run.end_lsn, run.record_count) == (0, end, 500)
    back, _ = run.scan_all()
    assert list(back) == sorted_records(recs)


def test_block_index_probes_match_full_scan(workdir):
    rng = random.Random(2)
    recs, end = make_records(rng, 2000, npages=100)
    path = write_run(workdir, 0, end, sorted_records(recs), len(recs), block_size=512)
    run = RunReader(path)
    full = list(run.scan_all()[0])
    for _ in range(200):
        a = rng.randrange(100)
        b = rng.randrange(a, 100)
        min_lsn = rng.randrange(end + 10)
        got, _ = run.scan_range(a, b, min_lsn)
        want = [r for r in full if a <= r.page_id <= b and r.lsn >= min_lsn]
        assert got == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=150), st.sampled_from([64, 100, 256, 512]),
       st.lists(st.tuples(st.integers(0, 44), st.integers(0, 12), st.integers(0, 8000)),
                min_size=1, max_size=8))
def test_block_span_is_exact(pages, block_size, probes):
    """For random sorted runs, block sizes and page ranges, block_span
    covers exactly the blocks whose pages, lowest to highest, meet the
    range, scan_range equals a linear filter of the run, and an empty span
    reads nothing."""
    recs, lsn = [], 1
    for i, page_id in enumerate(pages):
        recs.append(LogRecord(lsn, page_id, OP_SET, i % 8, value_bytes(i)))
        lsn = recs[-1].next_lsn
    recs = sorted_records(recs)
    with tempfile.TemporaryDirectory() as workdir:
        run = RunReader(write_run(workdir, 0, lsn, recs, len(recs), block_size))
        blocks = run_blocks(run)
        device = Device(DeviceRole.ARCHIVE)
        for first, width, min_lsn in probes:
            last = first + width
            meets = sorted(off for off, pids in blocks.items()
                           if min(pids) <= last and max(pids) >= first)
            start, end = run.block_span(first, last)
            assert (start, end) == ((meets[0], meets[-1] + block_size) if meets else (0, 0))
            assert end - start == len(meets) * block_size
            before = device.bytes_read
            got, _ = run.scan_range(first, last, min_lsn, device)
            assert got == [r for r in recs if first <= r.page_id <= last and r.lsn >= min_lsn]
            assert device.bytes_read - before == end - start


def test_out_of_order_records_rejected(workdir):
    recs = [LogRecord(1, 5, OP_SET, 0, value_bytes(0)),
            LogRecord(100, 3, OP_SET, 0, value_bytes(1))]
    with pytest.raises(ArchiveError):
        write_run(workdir, 0, 200, recs, len(recs))
    assert os.listdir(workdir) == []  # nothing published, tmp cleaned up


def test_lsn_outside_range_rejected(workdir):
    recs = [LogRecord(500, 5, OP_SET, 0, value_bytes(0))]
    with pytest.raises(ArchiveError):
        write_run(workdir, 0, 100, recs, len(recs))


def test_crash_before_rename_publishes_nothing(workdir):
    rng = random.Random(3)
    recs, end = make_records(rng, 50, npages=10)
    failpoints.arm("run:pre_rename")
    with pytest.raises(CrashInjected):
        write_run(workdir, 0, end, sorted_records(recs), len(recs))
    assert os.listdir(workdir) == []
    # retry after the "crash" succeeds
    path = write_run(workdir, 0, end, sorted_records(recs), len(recs))
    assert os.path.exists(path)


def test_corruption_detected_on_open(workdir):
    rng = random.Random(4)
    recs, end = make_records(rng, 50, npages=10)
    path = write_run(workdir, 0, end, sorted_records(recs), len(recs))
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
    recs = [LogRecord(1, 0, OP_SET, 0, value_bytes(0))]
    with pytest.raises(ArchiveError):
        write_run(workdir, 0, 100, recs, len(recs), block_size=16)


def test_empty_run(workdir):
    path = write_run(workdir, 10, 10, [], 0)
    run = RunReader(path)
    assert run.record_count == 0
    assert list(run.scan_all()[0]) == []
    assert run.scan_range(0, 100)[0] == []


def test_crc_mismatch_past_the_first_read_chunk(workdir):
    rng = random.Random(5)
    recs, end = make_records(rng, 3000, npages=100)
    path = write_run(workdir, 0, end, sorted_records(recs), len(recs), block_size=512)
    assert os.path.getsize(path) > 2 * READ_CHUNK
    RunReader(path)
    with open(path, "r+b") as f:
        f.seek(READ_CHUNK + 100)
        byte = f.read(1)
        f.seek(READ_CHUNK + 100)
        f.write(bytes([byte[0] ^ 0x01]))
    with pytest.raises(CorruptRunError, match="file crc mismatch"):
        RunReader(path)


@pytest.mark.parametrize("count", [49, 51])
def test_record_count_must_match(workdir, count):
    rng = random.Random(6)
    recs, end = make_records(rng, 50, npages=10)
    with pytest.raises(ArchiveError, match="expected"):
        write_run(workdir, 0, end, sorted_records(recs), count)
    assert os.listdir(workdir) == []
