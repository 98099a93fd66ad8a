import os
import random
import threading
import tracemalloc

import pytest

from segstore import wal as wal_module
from segstore.device import LatencyModel
from segstore.errors import CorruptRecordError, WalError
from segstore.wal import NULL_LSN, OP_DELETE, OP_SET, LogRecord, WriteAheadLog

from conftest import make_wal, random_history, value_bytes


def test_first_append_has_null_prev(workdir):
    wal = make_wal(workdir)
    lsn, _ = wal.append(5, 1, OP_SET, 0, value_bytes(0))
    assert lsn > NULL_LSN
    rec = next(wal.scan(0))
    assert rec.prev_page_lsn == NULL_LSN


def test_chain_links_same_page(workdir):
    wal = make_wal(workdir)
    l1, _ = wal.append(5, 1, OP_SET, 0, value_bytes(1))
    l2, _ = wal.append(5, 1, OP_SET, 1, value_bytes(2))
    recs = list(wal.scan(0))
    assert recs[1].prev_page_lsn == l1
    assert l2 > l1


def test_interleaved_chain_skips_other_pages(workdir):
    wal = make_wal(workdir)
    p1, _ = wal.append(1, 1, OP_SET, 0, value_bytes(1))
    o1, _ = wal.append(2, 1, OP_SET, 0, value_bytes(2))
    p2, _ = wal.append(1, 1, OP_SET, 1, value_bytes(3))
    by_lsn = {r.lsn: r for r in wal.scan(0)}
    assert by_lsn[p2].prev_page_lsn == p1
    assert by_lsn[p1].prev_page_lsn == NULL_LSN
    assert by_lsn[o1].prev_page_lsn == NULL_LSN
    assert by_lsn[p2].page_id == by_lsn[p1].page_id == 1


def test_scan_suffix_and_order(workdir):
    wal = make_wal(workdir)
    lsns = [wal.append(i % 3, 1, OP_SET, i, value_bytes(i))[0] for i in range(10)]
    assert [r.lsn for r in wal.scan(0)] == lsns
    assert [r.lsn for r in wal.scan(lsns[4])] == lsns[4:]
    assert [r.lsn for r in wal.scan(lsns[4] + 1)] == lsns[5:]


def test_flush_clamps_and_noop(workdir):
    wal = make_wal(workdir, flush_interval=1000)
    wal.flush(0)  # no-op on empty log
    lsn, _ = wal.append(0, 1, OP_SET, 0, value_bytes(0))
    assert wal.durable_lsn() <= lsn
    wal.flush(lsn + 10 ** 9)  # clamped to end
    assert wal.durable_lsn() == wal.end_lsn()


def test_survives_reopen(workdir):
    wal = make_wal(workdir)
    history = random_history(wal, random.Random(3), 50, npages=5)
    end = wal.end_lsn()
    last = {page: lsn for lsn, page, *_ in history}
    wal.flush()
    wal.close()
    wal2 = WriteAheadLog(os.path.join(workdir, "wal.log"))
    assert [r.lsn for r in wal2.scan(0)] == [h[0] for h in history]
    assert wal2.end_lsn() == end
    # the open-time scan rebuilds each page's newest lsn, so the next
    # record of a page points back across the reopen
    new = {page: wal2.append(page, 99, OP_SET, 0, value_bytes(page))[0] for page in last}
    by_lsn = {r.lsn: r for r in wal2.scan(end)}
    assert {page: by_lsn[lsn].prev_page_lsn for page, lsn in new.items()} == last
    wal2.close()


def test_chain_equals_filtered_scan_randomized(workdir):
    """Each record points back to the previous record of its own page,
    past the interleaved records of other pages."""
    wal = make_wal(workdir, flush_interval=500)
    rng = random.Random(11)
    history = random_history(wal, rng, 10_000, npages=37, nkeys=12)
    wal.flush()
    last = {}
    recs = list(wal.scan(0))
    assert [r.lsn for r in recs] == [h[0] for h in history]
    for rec in recs:
        assert rec.prev_page_lsn == last.get(rec.page_id, NULL_LSN)
        last[rec.page_id] = rec.lsn
    assert len(last) == 37


def test_corrupt_record_reports_offset(workdir):
    wal = make_wal(workdir)
    wal.append(0, 1, OP_SET, 0, value_bytes(0))
    lsn2, _ = wal.append(0, 1, OP_SET, 1, value_bytes(1))
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
    wal = make_wal(workdir, flush_interval=10)
    wal.append(0, 1, OP_SET, 0, value_bytes(0))
    with pytest.raises(WalError):
        list(wal.scan(wal.end_lsn() + 100))


def test_concurrent_appends_monotone(workdir):
    wal = make_wal(workdir, flush_interval=200)
    hits = []
    lock = threading.Lock()

    def hammer(tid):
        got = []
        for i in range(300):
            lsn, _ = wal.append(tid, tid, OP_SET, i % 8, value_bytes(i))
            got.append(lsn)
        with lock:
            hits.append(got)

    threads = [threading.Thread(target=hammer, args=(t,), daemon=True) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not any(t.is_alive() for t in threads)
    wal.flush()
    all_lsns = [lsn for got in hits for lsn in got]
    assert len(set(all_lsns)) == len(all_lsns)  # no duplicates across threads
    for got in hits:  # per-thread (hence per-page) order respects append order
        assert got == sorted(got)
    assert [r.lsn for r in wal.scan(0)] == sorted(all_lsns)


def test_read_suffix_batches(workdir):
    wal = make_wal(workdir)
    lsns = [wal.append(0, 1, OP_SET, i, value_bytes(i))[0] for i in range(10)]
    recs, next_lsn, _ = wal.read_suffix(0, 4)
    assert [r.lsn for r in recs] == lsns[:4]
    recs2, next2, _ = wal.read_suffix(next_lsn, 100)
    assert [r.lsn for r in recs2] == lsns[4:]
    recs3, next3, _ = wal.read_suffix(next2, 100)
    assert recs3 == [] and next3 == next2


def test_read_suffix_is_one_read_of_its_span(workdir):
    latency = LatencyModel(fixed_us=10.0, per_byte_us=0.5)
    wal = make_wal(workdir, latency=latency)
    lsns = [wal.append(i % 3, 1, OP_SET, i, value_bytes(i))[0] for i in range(10)]
    reads = []
    real_read = wal.device.read

    def counted(offset, nbytes, now=0.0):
        reads.append((offset, nbytes))
        return real_read(offset, nbytes, now)

    wal.device.read = counted
    bytes_before = wal.device.bytes_read
    now = 1e9  # the device is idle by then
    recs, next_lsn, t = wal.read_suffix(lsns[2], 5, now)
    assert recs == list(wal.scan(lsns[2]))[:5]
    span = next_lsn - lsns[2]
    assert span == sum(r.encoded_size for r in recs) and next_lsn == lsns[7]
    assert reads == [(lsns[2] - 1, span)]
    assert wal.device.bytes_read - bytes_before == span
    assert t == now + latency.cost_us(span)
    wal.close()


def test_read_suffix_stops_at_durable_end(workdir):
    wal = make_wal(workdir, flush_interval=1000)
    lsns = [wal.append(0, 1, OP_SET, i, value_bytes(i))[0] for i in range(6)]
    wal.flush(lsns[3])
    recs, next_lsn, _ = wal.read_suffix(0, 100)
    assert [r.lsn for r in recs] == lsns[:4] and next_lsn == lsns[4] == wal.durable_lsn()
    assert wal.read_suffix(next_lsn, 100)[:2] == ([], next_lsn)
    wal.close()


def test_reads_of_unflushed_tail_and_after_reopen(workdir, monkeypatch):
    monkeypatch.setattr(wal_module, "_READ_CHUNK", 150)  # records cross file reads
    wal = make_wal(workdir, flush_interval=1000)
    lsns = [wal.append(i % 4, 1, OP_SET, i, value_bytes(i))[0] for i in range(20)]
    wal.flush(lsns[9])
    assert wal.durable_lsn() == lsns[10]
    assert [r.lsn for r in wal.scan(0)] == lsns[:10]  # scan yields durable records only
    wal.flush()
    wal.close()
    wal2 = WriteAheadLog(os.path.join(workdir, "wal.log"))
    recs = list(wal2.scan(0))
    assert [(r.lsn, r.key) for r in recs] == [(lsn, i) for i, lsn in enumerate(lsns)]
    assert list(wal2.scan(lsns[7] + 1)) == recs[8:]
    assert wal2.end_lsn() == recs[-1].next_lsn
    assert (wal2.device.reads, wal2.device.bytes_read) == (0, 0)  # decoding is not charged
    wal2.close()


def test_memory_retained_per_record_is_small(workdir):
    """The log file is the only full copy of the log: an append leaves
    behind neither its bytes nor its start offset."""
    wal = make_wal(workdir)
    value = value_bytes(0)
    wal.append(0, 1, OP_SET, 0, value)
    n = 50_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            wal.append(i % 64, 1, OP_SET, i % 8, value)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    wal.close()
    assert grown / n <= 1, f"{grown / n:.1f} B retained per record"


def test_oversized_value_rejected(workdir):
    wal = make_wal(workdir)
    with pytest.raises(WalError, match="70000 bytes"):
        wal.append(0, 1, OP_SET, 0, bytes(70_000))
    lsn, _ = wal.append(0, 1, OP_SET, 0, bytes(65_535))  # the largest value_len
    assert wal.end_lsn() == lsn + 65_535 + LogRecord(lsn, 0, 1, 0, OP_SET, 0).encoded_size
    assert [r.value for r in wal.scan(0)] == [bytes(65_535)]
    wal.close()


def mixed_log(wal):
    """Append 47-B deletes, 63-B sets and one 447-B set; returns their lsns."""
    lsns = []
    for i in range(12):
        if i == 5:
            lsns.append(wal.append(i % 3, 1, OP_SET, i, bytes(range(200)) * 2)[0])
        elif i % 3 == 1:
            lsns.append(wal.append(i % 3, 1, OP_DELETE, i)[0])
        else:
            lsns.append(wal.append(i % 3, 1, OP_SET, i, value_bytes(i))[0])
    return lsns


def test_read_suffix_over_mixed_record_sizes(workdir):
    """Every batch, from every record start with every budget, is the
    records up to its budget or the durable end, and continues at the
    start of the record after it."""
    wal = make_wal(workdir, flush_interval=1000)
    lsns = mixed_log(wal)
    durable = 9
    wal.flush(lsns[durable - 1])
    recs = list(wal.scan(0))
    assert [r.encoded_size for r in recs[:6]] == [63, 47, 63, 63, 47, 447]
    ends = lsns[1:durable] + [wal.durable_lsn()]
    for i in range(durable):
        for budget in range(1, durable - i + 2):
            got, next_lsn, _ = wal.read_suffix(lsns[i], budget)
            j = min(i + budget, durable)
            assert got == recs[i:j] and next_lsn == ends[j - 1]
    assert wal.read_suffix(wal.durable_lsn(), 5)[:2] == ([], wal.durable_lsn())
    wal.close()


def test_read_suffix_from_misaligned_lsn_raises(workdir):
    wal = make_wal(workdir)
    lsns = mixed_log(wal)
    starts = set(lsns)
    for lsn in range(lsns[0], wal.durable_lsn()):
        if lsn not in starts:
            with pytest.raises(CorruptRecordError):
                wal.read_suffix(lsn, 3)
    wal.close()


def test_flush_makes_the_record_holding_up_to_durable(workdir):
    """flush(up_to) ends at the end of the record holding byte up_to - 1,
    whether up_to is a record start or inside a record."""
    wal = make_wal(workdir, flush_interval=1000)
    lsns = mixed_log(wal)
    wal.flush(lsns[1])
    assert wal.durable_lsn() == lsns[2]
    wal.flush(lsns[5] + 100)  # inside the long record
    assert wal.durable_lsn() == lsns[6]
    writes = wal.device.writes
    assert wal.flush(lsns[4], now=7.0) == 7.0  # already durable: no write
    assert wal.device.writes == writes
    wal.flush(lsns[8] - 1)  # the last byte of record 7
    assert wal.durable_lsn() == lsns[8]
    assert [r.lsn for r in wal.scan(0)] == lsns[:8]
    wal.close()


def test_scan_from_every_lsn_after_reopen(workdir, monkeypatch):
    monkeypatch.setattr(wal_module, "_READ_CHUNK", 100)  # under the long record
    wal = make_wal(workdir)
    lsns = mixed_log(wal)
    end = wal.end_lsn()
    wal.close()
    wal = WriteAheadLog(os.path.join(workdir, "wal.log"))
    recs = list(wal.scan(0))
    assert [r.lsn for r in recs] == lsns
    for lsn in range(0, end + 1):
        assert list(wal.scan(lsn)) == [r for r in recs if r.lsn >= lsn]
    assert (wal.device.reads, wal.device.bytes_read) == (0, 0)
    wal.close()


def test_record_encode_decode_round_trip():
    rec = LogRecord(lsn=101, page_id=7, txn_id=3, prev_page_lsn=55,
                    op=OP_SET, key=9, value=value_bytes(1))
    data = rec.encode()
    back, end = LogRecord.decode(data, 0)
    assert back == rec and end == len(data) == rec.encoded_size
