import os
import random
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segstore import wal as wal_module
from segstore.device import LatencyModel
from segstore.errors import CorruptRecordError, WalError
from segstore.wal import OP_DELETE, OP_SET, LogRecord, WriteAheadLog

from conftest import closing, make_wal, old_record_bytes, random_history, value_bytes


def test_record_sizes():
    """A record is its fixed header, its value and a CRC: nothing else."""
    assert wal_module._OVERHEAD == 31
    assert LogRecord(1, 5, OP_SET, 0, value_bytes(0)).encoded_size == 47
    assert LogRecord(1, 5, OP_DELETE, 0).encoded_size == 31
    for n in (17, 400, 65_535):
        rec = LogRecord(1, 5, OP_SET, 0, bytes(n))
        assert rec.encoded_size == len(rec.encode()) == 31 + n


def test_scan_suffix_and_order(workdir):
    wal = make_wal(workdir)
    lsns = [wal.append(i % 3, OP_SET, i, value_bytes(i))[0] for i in range(10)]
    assert [r.lsn for r in wal.scan(0)] == lsns
    assert [r.lsn for r in wal.scan(lsns[4])] == lsns[4:]
    with pytest.raises(CorruptRecordError):  # a start inside a record
        list(wal.scan(lsns[4] + 1))


def test_each_append_is_one_durable_write(workdir):
    """An append to an idle log device makes exactly one device write, of
    its record, and the record is in the file when the append returns."""
    latency = LatencyModel(fixed_us=10.0, per_byte_us=0.5)
    wal = make_wal(workdir, latency=latency)
    for i in range(5):
        writes, written = wal.device.writes, wal.device.bytes_written
        lsn, t = wal.append(i, OP_SET, i, value_bytes(i), now=1e9 * (i + 1))
        assert wal.device.writes == writes + 1
        assert wal.device.bytes_written - written == 47 == wal.end_lsn() - lsn
        assert t == 1e9 * (i + 1) + latency.cost_us(47)
        reader = WriteAheadLog(os.path.join(workdir, "wal.log"))
        assert [(r.lsn, r.key) for r in reader.scan(lsn)] == [(lsn, i)]
        reader.close()
    wal.close()


def test_append_joins_a_queued_log_write(workdir):
    """Appends at 0, 5 and 10 us: the first writes at once, the second
    queues behind it in a write of its own, and the third joins that
    write, which has not started by 10 us, for its per-byte cost alone."""
    wal = make_wal(workdir, latency=LatencyModel(20.0, 0.002))
    done = [wal.append(0, OP_SET, i, value_bytes(i), now=now)[1]
            for i, now in enumerate((0.0, 5.0, 10.0))]
    assert done == pytest.approx([20.094, 40.188, 40.282])
    assert wal.device.writes == 2 and wal.device.bytes_written == 3 * 47
    wal.close()


def test_log_read_closes_the_group(workdir):
    """The archiver's read queues behind the pending write, so the next
    append cannot join a write that the read now precedes."""
    latency = LatencyModel(20.0, 0.002)
    wal = make_wal(workdir, latency=latency)
    lsn, _ = wal.append(0, OP_SET, 0, value_bytes(0), now=0.0)
    _, t2 = wal.append(0, OP_SET, 1, value_bytes(1), now=5.0)
    _, _, t_read = wal.read_suffix(lsn, 1, now=6.0)
    assert t_read == t2 + latency.cost_us(47)
    _, t3 = wal.append(0, OP_SET, 2, value_bytes(2), now=10.0)
    assert t3 == t_read + latency.cost_us(47)
    assert wal.device.writes == 3
    wal.close()


def armed_wal(workdir, latency=LatencyModel(20.0, 0.002)):
    """A WAL whose log buffer a first read, of the empty log, has armed."""
    wal = make_wal(workdir, latency=latency)
    assert wal.read_suffix(wal.end_lsn(), 1) == ([], wal.end_lsn(), 0.0)
    assert (wal.device.reads, wal.device.bytes_read) == (0, 0)
    return wal


def test_buffered_read_makes_no_device_read(workdir):
    """Once a read has armed the log buffer, each read from the archiver's
    cursor returns the records scan returns and touches no device."""
    wal = armed_wal(workdir)
    lsns = [wal.append(i % 3, OP_SET, i, value_bytes(i), now=10.0 * i)[0] for i in range(9)]
    cursor, got = lsns[0], []
    for budget in (4, 2, 100):
        recs, cursor, _ = wal.read_suffix(cursor, budget, now=1e6)
        got += recs
    assert got == list(wal.scan(0)) and cursor == wal.end_lsn()
    assert (wal.device.reads, wal.device.bytes_read) == (0, 0)
    assert wal.read_suffix(cursor, 5, now=7.0) == ([], cursor, 7.0)


def test_append_after_buffered_read_joins_the_group(workdir):
    """Appends at 0 and 5 us, a buffered read at 6 us, an append at 10 us:
    the read leaves the group open, so the third append joins the second's
    write for its per-byte cost alone, as if no read had come between."""
    latency = LatencyModel(20.0, 0.002)
    wal = armed_wal(workdir, latency)
    lsn, t1 = wal.append(0, OP_SET, 0, value_bytes(0), now=0.0)
    _, t2 = wal.append(0, OP_SET, 1, value_bytes(1), now=5.0)
    recs, _, t_read = wal.read_suffix(lsn, 1, now=6.0)
    assert [r.lsn for r in recs] == [lsn] and t_read == t1
    _, t3 = wal.append(0, OP_SET, 2, value_bytes(2), now=10.0)
    assert t3 == pytest.approx(t2 + 47 * latency.per_byte_us)
    assert wal.device.writes == 2 and wal.device.reads == 0


def test_buffered_read_completes_when_its_newest_record_is_durable(workdir):
    """A buffered read completes at the later of its issue time and the
    completion of the newest record it returns."""
    wal = armed_wal(workdir, LatencyModel(20.0, 0.002))
    appended = [wal.append(0, OP_SET, i, value_bytes(i), now=100.0 * i) for i in range(4)]
    (lsn0, _), (_, t1), (lsn2, t2), (_, t3) = appended
    assert t1 < t2 < t3
    assert wal.read_suffix(lsn0, 2, now=t1 - 50.0)[2] == t1  # waits for record 1
    assert wal.read_suffix(lsn2, 1, now=t2 + 50.0)[2] == t2 + 50.0  # record 2 is durable
    assert wal.read_suffix(lsn2 + 47, 1, now=0.0)[2] == t3


def test_buffer_overflow_reads_the_file_once_then_rearms(workdir, monkeypatch):
    """Past BUFFER_RECORDS records the buffer is dropped: the next read is
    one charged read of its span from the file, and it arms the buffer
    again, so the read after it touches no device."""
    monkeypatch.setattr(wal_module, "BUFFER_RECORDS", 8)
    latency = LatencyModel(fixed_us=10.0, per_byte_us=0.5)
    wal = armed_wal(workdir, latency)
    lsns = [wal.append(0, OP_SET, i, value_bytes(i))[0] for i in range(9)]
    now = 1e9  # the device is idle by then
    recs, cursor, t = wal.read_suffix(lsns[0], 100, now)
    assert recs == list(wal.scan(0)) and cursor == wal.end_lsn()
    span = cursor - lsns[0]
    assert (wal.device.reads, wal.device.bytes_read) == (1, span)
    assert t == now + latency.cost_us(span)
    more = [wal.append(0, OP_SET, i, value_bytes(i))[0] for i in range(8)]
    recs, _, _ = wal.read_suffix(cursor, 100, now)
    assert [r.lsn for r in recs] == more
    assert (wal.device.reads, wal.device.bytes_read) == (1, span)


def test_reopened_log_reads_its_first_batch_from_the_device(workdir):
    """A log opened again holds no buffer: its first read goes to the file
    and is charged, whatever the handle that wrote it had buffered, and
    arms the new handle's buffer for the next read."""
    wal = armed_wal(workdir)
    lsns = [wal.append(0, OP_SET, i, value_bytes(i))[0] for i in range(6)]
    wal.close()
    wal = make_wal(workdir)
    recs, cursor, _ = wal.read_suffix(lsns[0], 100)
    assert [r.lsn for r in recs] == lsns
    assert (wal.device.reads, wal.device.bytes_read) == (1, cursor - lsns[0])
    new = [wal.append(0, OP_SET, i, value_bytes(i))[0] for i in range(3)]
    assert [r.lsn for r in wal.read_suffix(cursor, 100)[0]] == new
    assert (wal.device.reads, wal.device.bytes_read) == (1, cursor - lsns[0])


def test_memory_retained_per_record_with_a_reader_is_small(workdir):
    """With a reader draining the log buffer every 100 appends, the buffer
    holds at most 100 records: 50,000 appends leave almost nothing behind,
    and every read after the first is served from memory."""
    wal = make_wal(workdir)
    value = value_bytes(0)
    wal.append(0, OP_SET, 0, value)
    cursor = wal.read_suffix(0, 100)[1]
    n = 50_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            wal.append(i % 64, OP_SET, i % 8, value)
            if i % 100 == 99:
                cursor = wal.read_suffix(cursor, 100)[1]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cursor == wal.end_lsn() and wal.device.reads == 1
    wal.close()
    assert grown / n <= 1, f"{grown / n:.1f} B retained per record"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 400), st.booleans()), min_size=1, max_size=25))
def test_group_commit_against_one_write_per_append(tmp_path_factory, issues):
    """Appends issued at random times, sets and deletes alike.  No append
    completes later than if every append were its own FCFS write, and the
    log holds the bytes that a log appended one idle write at a time holds.
    Completions never decrease in LSN order, each record is readable from
    a fresh handle as soon as its append returns, and the device counts
    one write per group, a group forming by the join rule restated here."""
    workdir = str(tmp_path_factory.mktemp("wal"))
    latency = LatencyModel(20.0, 0.002)
    wal = make_wal(workdir, latency=latency)
    single = make_wal(workdir, name="single.log", latency=latency)
    closing(wal, single)
    busy = group_start = single_busy = -1.0
    groups = 0
    done = []
    for i, (now, is_set) in enumerate(issues):
        op, value = (OP_SET, value_bytes(i)) if is_set else (OP_DELETE, b"")
        lsn, t = wal.append(i % 5, op, i, value, now=float(now))
        size = wal.end_lsn() - lsn
        if group_start <= now:  # join only a write that has not started
            group_start = max(now, busy)
            busy = group_start + latency.fixed_us
            groups += 1
        busy += size * latency.per_byte_us
        assert t == pytest.approx(busy)
        single_busy = max(now, single_busy) + latency.cost_us(size)
        assert t <= single_busy + 1e-9
        assert single.append(i % 5, op, i, value, now=1e9 * (i + 1))[0] == lsn
        reader = WriteAheadLog(os.path.join(workdir, "wal.log"))
        assert [(r.lsn, r.op, r.key, r.value) for r in reader.scan(lsn)] == \
            [(lsn, op, i, value)]
        reader.close()
        done.append(t)
    assert done == sorted(done)
    assert wal.device.writes == groups
    assert single.device.writes == len(issues)
    assert wal.device.bytes_written == single.device.bytes_written
    with open(os.path.join(workdir, "wal.log"), "rb") as a, \
            open(os.path.join(workdir, "single.log"), "rb") as b:
        assert a.read() == b.read()


def test_flush_clamps_and_noop(workdir):
    """Every record is durable once appended: flush, with or without a
    bound, writes nothing and returns the time it was given."""
    wal = make_wal(workdir)
    assert wal.flush(0, now=3.0) == 3.0  # empty log
    lsn, _ = wal.append(0, OP_SET, 0, value_bytes(0))
    writes = wal.device.writes
    assert wal.flush(now=5.0) == 5.0
    assert wal.flush(lsn, now=6.0) == 6.0
    assert wal.flush(lsn + 10 ** 9, now=7.0) == 7.0
    assert wal.device.writes == writes
    wal.close()


def test_survives_reopen(workdir):
    wal = make_wal(workdir)
    history = random_history(wal, random.Random(3), 50, npages=5)
    end = wal.end_lsn()
    wal.close()
    wal2 = WriteAheadLog(os.path.join(workdir, "wal.log"))
    assert [r.lsn for r in wal2.scan(0)] == [h[0] for h in history]
    assert wal2.end_lsn() == end
    # appends continue where the reopened log ends
    new = [wal2.append(page, OP_SET, 0, value_bytes(page))[0] for page in range(5)]
    assert [r.lsn for r in wal2.scan(end)] == new and new[0] == end
    wal2.close()


def test_corrupt_record_reports_offset(workdir):
    wal = make_wal(workdir)
    wal.append(0, OP_SET, 0, value_bytes(0))
    lsn2, _ = wal.append(0, OP_SET, 1, value_bytes(1))
    with open(os.path.join(workdir, "wal.log"), "r+b") as f:  # corrupt the second record
        f.seek(lsn2 + 5)
        byte = f.read(1)[0]
        f.seek(lsn2 + 5)
        f.write(bytes([byte ^ 0xFF]))
    with pytest.raises(CorruptRecordError) as exc:
        list(wal.scan(0))
    assert exc.value.offset == lsn2 - 1
    wal.close()


def test_scan_beyond_durable_rejected(workdir):
    wal = make_wal(workdir)
    wal.append(0, OP_SET, 0, value_bytes(0))
    with pytest.raises(WalError):
        list(wal.scan(wal.end_lsn() + 100))


def test_concurrent_appends_monotone(workdir):
    wal = make_wal(workdir)
    hits = []
    lock = threading.Lock()

    def hammer(tid):
        got = []
        for i in range(300):
            lsn, _ = wal.append(tid, OP_SET, i % 8, value_bytes(i))
            got.append(lsn)
        with lock:
            hits.append(got)

    threads = [threading.Thread(target=hammer, args=(t,), daemon=True) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not any(t.is_alive() for t in threads)
    all_lsns = [lsn for got in hits for lsn in got]
    assert len(set(all_lsns)) == len(all_lsns)  # no duplicates across threads
    for got in hits:  # per-thread (hence per-page) order respects append order
        assert got == sorted(got)
    assert [r.lsn for r in wal.scan(0)] == sorted(all_lsns)


def test_read_suffix_batches(workdir):
    wal = make_wal(workdir)
    lsns = [wal.append(0, OP_SET, i, value_bytes(i))[0] for i in range(10)]
    recs, next_lsn, _ = wal.read_suffix(0, 4)
    assert [r.lsn for r in recs] == lsns[:4]
    recs2, next2, _ = wal.read_suffix(next_lsn, 100)
    assert [r.lsn for r in recs2] == lsns[4:]
    recs3, next3, _ = wal.read_suffix(next2, 100)
    assert recs3 == [] and next3 == next2


def test_read_suffix_is_one_read_of_its_span(workdir):
    latency = LatencyModel(fixed_us=10.0, per_byte_us=0.5)
    wal = make_wal(workdir, latency=latency)
    lsns = [wal.append(i % 3, OP_SET, i, value_bytes(i))[0] for i in range(10)]
    charges = []
    real_charge = wal.device.charge_read

    def counted(nbytes, now=0.0):
        charges.append(nbytes)
        return real_charge(nbytes, now)

    wal.device.charge_read = counted
    reads_before, bytes_before = wal.device.reads, wal.device.bytes_read
    now = 1e9  # the device is idle by then
    recs, next_lsn, t = wal.read_suffix(lsns[2], 5, now)
    assert recs == list(wal.scan(lsns[2]))[:5]
    span = next_lsn - lsns[2]
    assert span == sum(r.encoded_size for r in recs) and next_lsn == lsns[7]
    assert charges == [span]
    assert wal.device.reads - reads_before == 1
    assert wal.device.bytes_read - bytes_before == span
    assert t == now + latency.cost_us(span)
    wal.close()


def test_reads_of_unflushed_tail_and_after_reopen(workdir, monkeypatch):
    monkeypatch.setattr(wal_module, "READ_CHUNK", 150)  # records cross file reads
    wal = make_wal(workdir)
    lsns = [wal.append(i % 4, OP_SET, i, value_bytes(i))[0] for i in range(20)]
    assert [r.lsn for r in wal.scan(lsns[10])] == lsns[10:]
    wal.close()
    wal2 = WriteAheadLog(os.path.join(workdir, "wal.log"))
    recs = list(wal2.scan(0))
    assert [(r.lsn, r.key) for r in recs] == [(lsn, i) for i, lsn in enumerate(lsns)]
    assert list(wal2.scan(lsns[8])) == recs[8:]
    with pytest.raises(CorruptRecordError):
        list(wal2.scan(lsns[7] + 1))
    assert wal2.end_lsn() == recs[-1].next_lsn
    assert (wal2.device.reads, wal2.device.bytes_read) == (0, 0)  # decoding is not charged
    wal2.close()


def test_each_log_byte_is_read_once(workdir, monkeypatch):
    """A scan decodes each record from the file read that holds it, so it
    reads the log about once, and a batch read stops within one read of
    its span."""
    monkeypatch.setattr(wal_module, "READ_CHUNK", 150)  # records cross file reads
    wal = make_wal(workdir)
    lsns = [wal.append(i % 4, OP_SET, i, value_bytes(i))[0] for i in range(40)]
    size = wal.end_lsn() - lsns[0]
    assert size == 40 * 47
    read = []
    real_pread = wal.device.pread

    def counted(offset, nbytes):
        read.append(nbytes)
        return real_pread(offset, nbytes)

    wal.device.pread = counted
    assert [r.lsn for r in wal.scan(0)] == lsns
    assert sum(read) < 1.5 * size
    read.clear()
    recs, next_lsn, _ = wal.read_suffix(lsns[3], 5)
    assert [r.lsn for r in recs] == lsns[3:8]
    assert sum(read) <= next_lsn - lsns[3] + 150
    wal.close()


def test_log_cut_inside_its_last_record_is_refused(workdir):
    """A log whose last record is cut short, 20 bytes into its body or 2
    bytes into its length field, fails to open at that record's start."""
    wal = make_wal(workdir)
    lsns = [wal.append(i % 4, OP_SET, i, value_bytes(i))[0] for i in range(6)]
    wal.close()
    path = os.path.join(workdir, "wal.log")
    for cut in (4 + 20, 2):
        with open(path, "r+b") as f:
            f.truncate(lsns[-1] - 1 + cut)
        with pytest.raises(CorruptRecordError) as exc:
            WriteAheadLog(path)
        assert exc.value.offset == lsns[-1] - 1


def test_memory_retained_per_record_is_small(workdir):
    """The log file is the only full copy of the log: an append leaves
    behind neither its bytes nor its start offset."""
    wal = make_wal(workdir)
    value = value_bytes(0)
    wal.append(0, OP_SET, 0, value)
    n = 50_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            wal.append(i % 64, OP_SET, i % 8, value)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    wal.close()
    assert grown / n <= 1, f"{grown / n:.1f} B retained per record"


def test_memory_retained_per_page_is_small(workdir):
    """The WAL keeps no per-page state: logging to 20,000 distinct pages
    leaves nothing behind per page."""
    wal = make_wal(workdir)
    value = value_bytes(0)
    wal.append(0, OP_SET, 0, value)
    n = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for page in range(1, n + 1):
            wal.append(page, OP_SET, 0, value)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    wal.close()
    assert grown / n <= 1, f"{grown / n:.1f} B retained per page"


def test_log_in_the_older_record_layout_is_refused(workdir):
    """A log of 63-byte records, which also carried a transaction id and
    the page's previous LSN, fails to open instead of being misread."""
    path = os.path.join(workdir, "wal.log")
    with open(path, "wb") as f:
        lsn = 1
        for i in range(4):
            data = old_record_bytes(lsn, i % 2, i, value_bytes(i))
            f.write(data)
            lsn += len(data)
    with pytest.raises(CorruptRecordError, match="bad length") as exc:
        WriteAheadLog(path)
    assert exc.value.offset == 0


def test_oversized_value_rejected(workdir):
    wal = make_wal(workdir)
    with pytest.raises(WalError, match="70000 bytes"):
        wal.append(0, OP_SET, 0, bytes(70_000))
    lsn, _ = wal.append(0, OP_SET, 0, bytes(65_535))  # the largest value_len
    assert wal.end_lsn() == lsn + 65_535 + LogRecord(lsn, 0, OP_SET, 0).encoded_size
    assert [r.value for r in wal.scan(0)] == [bytes(65_535)]
    wal.close()


def mixed_log(wal):
    """Append 31-B deletes, 47-B sets and one 431-B set; returns their lsns."""
    lsns = []
    for i in range(12):
        if i == 5:
            lsns.append(wal.append(i % 3, OP_SET, i, bytes(range(200)) * 2)[0])
        elif i % 3 == 1:
            lsns.append(wal.append(i % 3, OP_DELETE, i)[0])
        else:
            lsns.append(wal.append(i % 3, OP_SET, i, value_bytes(i))[0])
    return lsns


def test_read_suffix_over_mixed_record_sizes(workdir):
    """Every batch, from every record start with every budget, is the
    records up to its budget or the log end, and continues at the start of
    the record after it."""
    wal = make_wal(workdir)
    lsns = mixed_log(wal)
    recs = list(wal.scan(0))
    assert [r.encoded_size for r in recs[:6]] == [47, 31, 47, 47, 31, 431]
    n = len(lsns)
    ends = lsns[1:] + [wal.end_lsn()]
    for i in range(n):
        for budget in range(1, n - i + 2):
            got, next_lsn, _ = wal.read_suffix(lsns[i], budget)
            j = min(i + budget, n)
            assert got == recs[i:j] and next_lsn == ends[j - 1]
    assert wal.read_suffix(wal.end_lsn(), 5)[:2] == ([], wal.end_lsn())
    wal.close()


def test_read_suffix_from_misaligned_lsn_raises(workdir):
    wal = make_wal(workdir)
    lsns = mixed_log(wal)
    starts = set(lsns)
    for lsn in range(lsns[0], wal.end_lsn()):
        if lsn not in starts:
            with pytest.raises(CorruptRecordError):
                wal.read_suffix(lsn, 3)
    wal.close()


def test_scan_from_every_lsn_after_reopen(workdir, monkeypatch):
    monkeypatch.setattr(wal_module, "READ_CHUNK", 100)  # under the long record
    wal = make_wal(workdir)
    lsns = mixed_log(wal)
    end = wal.end_lsn()
    wal.close()
    wal = WriteAheadLog(os.path.join(workdir, "wal.log"))
    recs = list(wal.scan(0))
    assert [r.lsn for r in recs] == lsns
    starts = {0, end, *lsns}
    for lsn in range(0, end + 1):
        if lsn in starts:
            assert list(wal.scan(lsn)) == [r for r in recs if r.lsn >= lsn]
        else:
            with pytest.raises(CorruptRecordError):
                list(wal.scan(lsn))
    assert (wal.device.reads, wal.device.bytes_read) == (0, 0)
    wal.close()


@settings(max_examples=300, deadline=None)
@given(lsn=st.integers(1, 2 ** 64 - 1), page_id=st.integers(0, 2 ** 64 - 1),
       op=st.integers(0, 255), key=st.integers(0, 2 ** 32 - 1),
       value=st.binary(max_size=600), prefix=st.binary(max_size=40),
       suffix=st.binary(max_size=40))
def test_record_encode_decode_round_trip(lsn, page_id, op, key, value, prefix, suffix):
    """Every field survives encode/decode at any offset in a buffer, both
    as an archive block record and as a WAL record at its file offset."""
    rec = LogRecord(lsn, page_id, op, key, value)
    data = rec.encode()
    buf = prefix + data + suffix
    assert LogRecord.decode(buf, len(prefix)) == (rec, len(prefix) + len(data))
    base = lsn - 1 - len(prefix)  # the file offset of buf[0] that puts rec at lsn - 1
    if base >= 0:
        assert LogRecord.decode(buf, len(prefix), base) == (rec, len(prefix) + len(data))
