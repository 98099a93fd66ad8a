import random
import sys
import tempfile
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segstore.bufferpool import _MAX_USAGE, BufferPool
from segstore.device import LatencyModel
from segstore.errors import ChecksumError, MediaFailureError, StorageError
from segstore.pages import Page, page_capacity
from segstore.restore import RestoreHandle
from segstore.wal import OP_SET, LogRecord
from segstore.workload import ZipfianGenerator

from conftest import make_replacement, make_volume, make_wal, value_bytes


def make_pool(workdir, capacity=8, page_count=64):
    vol = make_volume(workdir, page_count=page_count, page_size=1024,
                      pages_per_segment=8)
    return BufferPool(vol, capacity), vol, make_wal(workdir)


def test_memory_retained_per_frame_is_small(workdir):
    """An empty frame is one pointer in the page list, one 4-byte pin
    count, one flag byte and one usage-count byte: no per-frame object."""
    vol = make_volume(workdir, page_count=64, page_size=1024, pages_per_segment=8)
    n = 16_384
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pool = BufferPool(vol, n)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pool.capacity == n
    assert grown / n <= 15, f"{grown / n:.1f} B retained per frame"


def test_memory_retained_per_resident_page_is_small(workdir):
    """A resident one-record page is its slotted Page, one array of its
    key and entry, and its id and LSN ints: about 226 B under tracemalloc."""
    n = 4096
    vol = make_volume(workdir, page_count=n, page_size=1024, pages_per_segment=8)
    pool = BufferPool(vol, n)
    cap = page_capacity(1024)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for pid in range(n):
            h, _ = pool.fix_page(pid)
            h.page.set(pid, value_bytes(pid), cap)
            h.page.page_lsn = 2 ** 40 + pid
            pool.unfix_page(h, mark_dirty=True)
        del h
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pool.dirty_count() == n and pool.evictions == 0
    assert grown / n <= 240, f"{grown / n:.1f} B retained per resident page"


MODEL_PAGES, MODEL_FRAMES = 12, 4
_pool_ops = st.lists(st.one_of(
    st.tuples(st.just("fix"), st.integers(0, MODEL_PAGES - 1), st.none()),
    st.tuples(st.just("unfix"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("touch"), st.integers(0, MODEL_PAGES - 1), st.booleans()),
    st.tuples(st.just("flush_some"), st.integers(0, 5), st.none()),
    st.tuples(st.just("flush_page"), st.integers(0, MODEL_PAGES - 1), st.none())),
    min_size=20, max_size=80)


@settings(max_examples=200, deadline=None)
@given(_pool_ops)
def test_pool_matches_dict_model(ops):
    """Random fix/unfix/flush sequences on a 4-frame pool against a model
    of pins, residency, dirtiness and page contents ("touch" is a fix and
    its unfix, so pages cycle through the frames).  The model cannot know
    CLOCK's victim, so it reads the resident set and checks that a miss
    changed it by the fixed page in and one unpinned page out when the
    pool was full, and that a dirty victim reached the volume.  The dirty
    pages that the miss cleaned are those now on the volume: the victim
    and a run of unheld neighbours in its segment."""
    with tempfile.TemporaryDirectory() as workdir:
        pool, vol, wal = make_pool(workdir, capacity=MODEL_FRAMES,
                                   page_count=MODEL_PAGES)
        cap = page_capacity(1024)
        model = {pid: {} for pid in range(MODEL_PAGES)}
        lsns = dict.fromkeys(range(MODEL_PAGES), 0)
        held, resident, dirty = [], set(), set()
        counts = {"evictions": 0, "reads": 0}

        def on_volume(pid):
            page, _ = vol.read_page(pid)
            return page.page_lsn == lsns[pid] and page.records == model[pid]

        def fix(pid):
            """Fix unless the page is held (its latch would wait); None if
            not fixed."""
            nonlocal resident
            pinned = {p for _, p in held}
            if pid in pinned:
                return None
            if pid not in resident and len(pinned) == MODEL_FRAMES:
                with pytest.raises(StorageError):
                    pool.try_fix_page(pid)
                return None
            h, _ = pool.fix_page(pid)
            assert h.page.page_id == pid
            assert h.page.page_lsn == lsns[pid] and h.page.records == model[pid]
            if pid not in resident:
                counts["reads"] += 1
                now = {p for p in range(MODEL_PAGES) if pool.resident(p)}
                assert now - resident == {pid}
                gone = resident - now
                assert len(gone) == (len(resident) == MODEL_FRAMES)
                # A dirty victim's write carried these pages: one run of
                # page ids around it, inside its segment, none of them held.
                cleaned = {p for p in dirty if on_volume(p)}
                if cleaned:
                    assert len(gone) == 1 and gone <= cleaned
                    assert cleaned == set(range(min(cleaned), max(cleaned) + 1))
                    assert len({vol.geometry.segment_of(p) for p in cleaned}) == 1
                    assert not cleaned & pinned
                dirty.difference_update(cleaned)
                for victim in gone:
                    assert victim not in pinned
                    counts["evictions"] += 1
                    dirty.discard(victim)
                    assert on_volume(victim)
                resident = now
            return h

        def unfix(h, pid, mark, step):
            if mark:
                key, value = step % 5, value_bytes(step)
                lsns[pid], _ = wal.append(pid, OP_SET, key, value)
                h.page.set(key, value, cap)
                h.page.page_lsn = lsns[pid]
                model[pid][key] = value
                dirty.add(pid)
            pool.unfix_page(h, mark_dirty=mark)

        for step, (op, arg, extra) in enumerate(ops):
            if op == "fix":
                h = fix(arg)
                if h is not None:
                    held.append((h, arg))
            elif op == "unfix" and held:
                unfix(*held.pop(arg % len(held)), extra, step)
            elif op == "touch":
                h = fix(arg)
                if h is not None:
                    unfix(h, arg, extra, step)
            elif op == "flush_some":
                candidates = dirty - {p for _, p in held}
                flushed, _ = pool.flush_some(arg)
                assert flushed == min(arg, len(candidates))
                cleaned = {pid for pid in candidates if on_volume(pid)}
                assert len(cleaned) == flushed
                dirty -= cleaned
            elif op == "flush_page":
                if any(p == arg for _, p in held):
                    continue  # flush_page waits for the latch
                pool.flush_page(arg)
                if arg in dirty:
                    dirty.remove(arg)
                    assert on_volume(arg)
            for pid in range(MODEL_PAGES):
                assert pool.pin_count(pid) == sum(p == pid for _, p in held)
                assert pool.resident(pid) == (pid in resident)
            assert len(resident) <= MODEL_FRAMES and dirty <= resident
            assert pool.dirty_count() == len(dirty)
            assert (pool.evictions, pool.page_reads) == (counts["evictions"], counts["reads"])
        for h, _ in held:
            pool.unfix_page(h)
        pool.flush_all()
        assert pool.dirty_count() == 0
        assert all(on_volume(pid) for pid in range(MODEL_PAGES))
        vol.close()
        wal.close()


def test_fix_pin_counts(workdir):
    pool, _, _ = make_pool(workdir)
    h1, _ = pool.fix_page(3)
    assert pool.pin_count(3) == 1
    pool.unfix_page(h1)
    assert pool.pin_count(3) == 0
    h2, _ = pool.fix_page(3)
    assert h2.page is h1.page
    assert pool.pin_count(3) == 1
    pool.unfix_page(h2)
    assert pool.pin_count(3) == 0


def test_double_unfix_rejected(workdir):
    pool, _, _ = make_pool(workdir)
    h, _ = pool.fix_page(0)
    pool.unfix_page(h)
    with pytest.raises(StorageError):
        pool.unfix_page(h)


def test_dirty_flag_ors(workdir):
    pool, vol, _ = make_pool(workdir)
    h, _ = pool.fix_page(1)
    pool.unfix_page(h, mark_dirty=True)
    h, _ = pool.fix_page(1)
    pool.unfix_page(h, mark_dirty=False)
    assert pool.dirty_count() == 1  # still dirty: flushing page 1 writes it
    writes = vol.device.writes
    pool.flush_page(1)
    assert vol.device.writes == writes + 1 and pool.dirty_count() == 0


def test_flush_enforces_wal_rule(workdir, monkeypatch):
    """On every write-back path (flush_page, a dirty CLOCK victim written
    back by a miss, and the cleaner's flush_some) a page is written only
    once its last log record is in the log file."""
    pool, vol, wal = make_pool(workdir, capacity=1)
    checked = []
    real_write = vol.write_page

    def write_page(page, now=0.0):
        assert page.page_lsn < wal.end_lsn()
        with open(wal.device.path, "rb") as f:
            rec, _ = LogRecord.decode(f.read(), page.page_lsn - 1, 0)
        assert (rec.lsn, rec.page_id) == (page.page_lsn, page.page_id)
        checked.append(page.page_id)
        return real_write(page, now)

    monkeypatch.setattr(vol, "write_page", write_page)
    lsns = {}

    def update(pid):
        h, _ = pool.fix_page(pid)
        lsns[pid], _ = wal.append(pid, OP_SET, 0, value_bytes(pid))
        h.page.set(0, value_bytes(pid), page_capacity(1024))
        h.page.page_lsn = lsns[pid]
        pool.unfix_page(h, mark_dirty=True)

    update(2)
    pool.flush_page(2)
    assert checked == [2]
    update(3)  # evicts page 2, clean, without a write
    update(4)  # evicts page 3, dirty, writing it back
    assert checked == [2, 3]
    assert pool.flush_some(1)[0] == 1
    assert checked == [2, 3, 4]
    for pid, lsn in lsns.items():
        back, _ = vol.read_page(pid)
        assert back.page_lsn == lsn and back.get(0) == value_bytes(pid)


def test_cleaner_hand_sweeps_the_pool(workdir, monkeypatch):
    """flush_some resumes where its last call stopped: with frame 0's page
    dirtied again before each call, successive one-page calls still clean
    every frame in turn, and one large call cleans each dirty, unpinned
    frame exactly once."""
    pool, vol, _ = make_pool(workdir, capacity=8)
    written = []
    real_write = vol.write_page

    def write_page(page, now=0.0):
        written.append(page.page_id)
        return real_write(page, now)

    monkeypatch.setattr(vol, "write_page", write_page)

    def dirty(pid):
        h, _ = pool.fix_page(pid)
        pool.unfix_page(h, mark_dirty=True)

    for pid in range(8):  # page pid fills frame pid
        dirty(pid)
    for _ in range(8):
        dirty(0)
        assert pool.flush_some(1)[0] == 1
    assert sorted(written) == list(range(8))

    written.clear()
    for pid in range(8):
        dirty(pid)
    pinned, _ = pool.fix_page(5)
    assert pool.flush_some(100)[0] == 7
    assert sorted(written) == [0, 1, 2, 3, 4, 6, 7]
    assert pool.dirty_count() == 1
    pool.unfix_page(pinned)


def test_flush_clean_page_noop(workdir):
    pool, vol, _ = make_pool(workdir)
    h, _ = pool.fix_page(2)
    pool.unfix_page(h)
    writes = vol.device.writes
    pool.flush_page(2)
    pool.flush_page(63)  # not resident at all
    assert vol.device.writes == writes


def test_eviction_when_capacity_exceeded(workdir):
    pool, vol, _ = make_pool(workdir, capacity=4)
    for pid in range(8):
        h, _ = pool.fix_page(pid)
        pool.unfix_page(h, mark_dirty=True)
    assert pool.evictions >= 4
    resident = sum(1 for pid in range(8) if pool.resident(pid))
    assert resident <= 4
    # dirty evicted pages reached the device
    for pid in range(8):
        if not pool.resident(pid):
            page, _ = vol.read_page(pid)


def test_hot_page_survives_the_sweep(workdir):
    """A page hit four times outlives pages read once: the sweep lowers
    every count, takes the first frame at 0 (page 1's) and keeps page 0.
    One reference bit per frame would clear all four bits and then evict
    frame 0."""
    pool, _, _ = make_pool(workdir, capacity=4)
    for pid in (0, 0, 0, 0, 1, 2, 3):
        h, _ = pool.fix_page(pid)
        pool.unfix_page(h)
    h, _ = pool.fix_page(4)
    pool.unfix_page(h)
    assert pool.evictions == 1
    assert not pool.resident(1)
    assert all(pool.resident(pid) for pid in (0, 2, 3, 4))


def test_sweep_bound_reaches_a_frame_at_max_usage(workdir):
    """With every frame's count at _MAX_USAGE and only the frame the hand
    reaches last unpinned, the sweep's last step takes it: (_MAX_USAGE + 1)
    passes over the pool find a victim whenever one exists.  With every
    frame pinned, the cooperative fix still refuses."""
    pool, _, _ = make_pool(workdir, capacity=4)
    held = []
    for pid in range(4):
        for _ in range(_MAX_USAGE + 2):  # the count stops at the cap
            h, _ = pool.fix_page(pid)
            pool.unfix_page(h)
        if pid < 3:
            held.append(pool.fix_page(pid)[0])
    assert list(pool._usage) == [_MAX_USAGE] * 4
    h, _ = pool.try_fix_page(4)
    assert not pool.resident(3) and h.frame == 3
    held.append(h)
    with pytest.raises(StorageError):
        pool.try_fix_page(5)
    for h in held:
        pool.unfix_page(h)


def test_hit_ratio_on_a_seeded_zipf_stream(workdir):
    """A pool holding half of a 1,024-page volume serves 20,000 fixes drawn
    from a seeded zipf(0.8) stream.  After the pool fills, usage counts
    hit 0.780 of fixes; one reference bit per frame hit 0.761."""
    n, capacity = 1024, 512
    vol = make_volume(workdir, page_count=n, page_size=1024, pages_per_segment=8)
    pool = BufferPool(vol, capacity)
    zipf = ZipfianGenerator(n, 0.8)
    rng = random.Random(1)
    hits = fixes = 0
    for _ in range(20_000):
        reads = pool.page_reads
        h, _ = pool.fix_page(zipf.draw(rng))
        pool.unfix_page(h)
        if reads >= capacity:  # every frame held a page before this fix
            fixes += 1
            hits += pool.page_reads == reads
    assert hits / fixes >= 0.761 + 0.01, f"hit ratio {hits / fixes:.4f}"


def test_failed_eviction_write_keeps_the_frame(workdir, monkeypatch):
    """A dirty victim whose write fails stays dirty, resident and unpinned:
    it can be fixed again, a later eviction writes it back, and flush_all
    returns."""
    pool, vol, wal = make_pool(workdir, capacity=1)
    h, _ = pool.fix_page(0)
    lsn, _ = wal.append(0, OP_SET, 0, value_bytes(0))
    h.page.set(0, value_bytes(0), page_capacity(1024))
    h.page.page_lsn = lsn
    pool.unfix_page(h, mark_dirty=True)
    write_page = vol.write_page

    def fail_once(page, now=0.0):
        monkeypatch.setattr(vol, "write_page", write_page)
        raise StorageError("injected write failure")

    monkeypatch.setattr(vol, "write_page", fail_once)
    with pytest.raises(StorageError, match="injected"):
        pool.try_fix_page(1)
    # The miss's read came first; the page it read is dropped, and the one
    # frame still holds page 0.
    assert not pool.resident(1) and pool.resident(0)
    assert sum(map(pool.resident, range(64))) == pool.capacity
    assert pool.evictions == 0
    errors = []

    def check():
        try:
            assert pool.resident(0) and pool.pin_count(0) == 0
            assert pool.dirty_count() == 1
            h, _ = pool.try_fix_page(0)
            pool.unfix_page(h)
            h, _ = pool.try_fix_page(1)  # evicts page 0, writing it back
            pool.unfix_page(h, mark_dirty=True)
            assert not pool.resident(0)
            back, _ = vol.read_page(0)
            assert back.page_lsn == lsn and back.get(0) == value_bytes(0)
            pool.flush_all()
            assert pool.dirty_count() == 0
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(repr(exc))

    thread = threading.Thread(target=check, daemon=True)
    thread.start()
    thread.join(30.0)
    assert not thread.is_alive() and errors == []


def test_failed_miss_read_keeps_its_clean_victim(workdir, monkeypatch):
    """A miss whose read raises evicts nothing: its clean CLOCK victim stays
    resident, and fixing the victim again costs no read."""
    pool, vol, _ = make_pool(workdir, capacity=1)
    h, _ = pool.fix_page(0)
    pool.unfix_page(h)

    def fail(page_id, now=0.0):
        raise StorageError("injected read failure")

    monkeypatch.setattr(vol, "read_page", fail)
    with pytest.raises(StorageError, match="injected"):
        pool.try_fix_page(1)
    monkeypatch.undo()
    assert pool.resident(0) and not pool.resident(1)
    assert (pool.evictions, pool.page_reads) == (0, 1)
    reads = vol.device.reads
    h, _ = pool.try_fix_page(0)
    pool.unfix_page(h)
    assert vol.device.reads == reads and pool.page_reads == 1


def test_dirty_victim_write_trails_the_miss_read(workdir):
    """A miss that evicts a dirty victim returns when its own read completes.
    The victim's write, issued at the miss's time, queues behind that read
    on the device, so a re-fix of the victim page queues behind the write.
    A clean victim costs the miss its read alone, as before."""
    latency = LatencyModel(fixed_us=100.0, per_byte_us=0.01)
    vol = make_volume(workdir, page_count=64, page_size=1024,
                      pages_per_segment=8, latency=latency)
    pool = BufferPool(vol, 1)
    cost = latency.cost_us(1024)
    dev = vol.device
    h, t = pool.fix_page(0, 0.0)  # a free frame: one read
    assert t == cost
    h.page.set(7, value_bytes(7), page_capacity(1024))
    pool.unfix_page(h, mark_dirty=True)

    now = 1000.0
    writes = dev.writes
    h, t = pool.fix_page(1, now)  # evicts dirty page 0
    assert t == now + cost
    assert dev.writes == writes + 1
    assert dev._busy_until == t + cost
    assert not pool.resident(0) and pool.dirty_count() == 0
    # The victim's image is in the file already; pread charges no transfer.
    back = Page.from_bytes(dev.pread(vol.geometry.page_offset(0), 1024))
    assert back.get(7) == value_bytes(7)
    pool.unfix_page(h)

    h, t = pool.fix_page(0, now)  # evicts clean page 1, reads behind the write
    assert t == now + 3 * cost
    pool.unfix_page(h)

    now = 5000.0
    writes = dev.writes
    h, t = pool.fix_page(2, now)  # evicts clean page 0
    assert t == now + cost == dev._busy_until
    assert dev.writes == writes
    pool.unfix_page(h)


_CLUSTER_LATENCY = LatencyModel(fixed_us=100.0, per_byte_us=0.01)


def _dirty(pool, pid, fixes=1):
    """Fix pid, store its id under key pid and unfix it dirty, fixes times."""
    for _ in range(fixes):
        h, _ = pool.fix_page(pid)
        h.page.set(pid, value_bytes(pid), page_capacity(1024))
        pool.unfix_page(h, mark_dirty=True)


def _stored(vol, pid):
    """The image of pid in the volume's file, read without a charge."""
    return Page.from_bytes(vol.device.pread(vol.geometry.page_offset(pid), 1024))


def test_dirty_victim_writes_its_cold_dirty_neighbours(workdir):
    """A dirty victim's write carries the cold dirty pages on both sides of
    it in one transfer, issued at the miss's time behind its read: each
    neighbour's image is in the file when the miss returns, and every page
    of the span stays resident, clean."""
    vol = make_volume(workdir, page_count=64, page_size=1024,
                      pages_per_segment=8, latency=_CLUSTER_LATENCY)
    pool = BufferPool(vol, 3)
    for pid in (3, 2, 4):  # page 3 takes frame 0, the sweep's victim
        _dirty(pool, pid)
    dev = vol.device
    writes, written = dev.writes, dev.bytes_written
    now = 1000.0
    h, t = pool.fix_page(40, now)
    pool.unfix_page(h)
    assert t == now + _CLUSTER_LATENCY.cost_us(1024)
    assert (dev.writes, dev.bytes_written) == (writes + 1, written + 3 * 1024)
    assert dev._busy_until == t + _CLUSTER_LATENCY.cost_us(3 * 1024)
    for pid in (2, 3, 4):
        assert _stored(vol, pid).get(pid) == value_bytes(pid)
    assert not pool.resident(3) and pool.resident(2) and pool.resident(4)
    assert pool.dirty_count() == 0 and pool.evictions == 1


def _hot(pool, pid):
    _dirty(pool, pid, fixes=3)  # the sweep lowers its count to 2


def _held(pool, pid):
    _dirty(pool, pid)
    h, _ = pool.fix_page(pid)
    pool._usage[h.frame] = 1  # only the pin and the latch keep it out
    return h


def _clean(pool, pid):
    h, _ = pool.fix_page(pid)
    pool.unfix_page(h)


# victim, the cold dirty neighbour that joins it, the page the span stops
# at (how it is made, or None to leave it out of the pool) and the cold
# dirty page past it, which the span must not reach.
@pytest.mark.parametrize("victim, joins, stop, make, beyond", [
    (11, 10, 12, _hot, 13),
    (11, 10, 12, _held, 13),
    (11, 10, 12, _clean, 13),
    (11, 10, 12, None, 13),
    (16, 17, 15, _dirty, 14),
], ids=["hot", "held", "clean", "absent", "segment-boundary"])
def test_victim_span_stops(workdir, victim, joins, stop, make, beyond):
    vol = make_volume(workdir, page_count=64, page_size=1024,
                      pages_per_segment=8, latency=_CLUSTER_LATENCY)
    pool = BufferPool(vol, 4 if make else 3)
    for pid in (victim, joins, beyond):
        _dirty(pool, pid)
    held = make(pool, stop) if make else None
    dirty = pool.dirty_count()
    dev = vol.device
    writes, written = dev.writes, dev.bytes_written
    h, _ = pool.fix_page(40)
    pool.unfix_page(h)
    assert (dev.writes, dev.bytes_written) == (writes + 1, written + 2 * 1024)
    assert _stored(vol, joins).get(joins) == value_bytes(joins)
    assert _stored(vol, beyond).get(beyond) is None
    assert not pool.resident(victim) and pool.dirty_count() == dirty - 2
    if held is not None:
        pool.unfix_page(held)


def test_failed_span_write_cleans_nothing(workdir, monkeypatch):
    """A dirty victim whose span write fails evicts nothing and cleans
    nothing: the victim and its neighbours stay resident and dirty, and
    the next miss writes the span again."""
    pool, vol, _ = make_pool(workdir, capacity=3)
    for pid in (3, 2, 4):
        _dirty(pool, pid)

    def fail(first, pages, now=0.0):
        raise StorageError("injected span write failure")

    monkeypatch.setattr(vol, "write_page_span", fail)
    with pytest.raises(StorageError, match="injected"):
        pool.try_fix_page(40)
    assert all(map(pool.resident, (2, 3, 4))) and not pool.resident(40)
    assert (pool.dirty_count(), pool.evictions) == (3, 0)
    assert all(pool.pin_count(pid) == 0 for pid in (2, 3, 4))
    monkeypatch.undo()
    h, _ = pool.try_fix_page(40)
    pool.unfix_page(h)
    assert pool.dirty_count() == 0
    assert all(_stored(vol, pid).get(pid) == value_bytes(pid) for pid in (2, 3, 4))


def test_prefetch_reads_a_page_unpinned_and_unlatched(workdir):
    """A prefetch is the page's miss: one read, charged once, into a frame
    left with no pin and no latch and a usage count of 1.  The fix that
    follows is a hit that charges nothing and raises the count to 2."""
    latency = LatencyModel(fixed_us=100.0, per_byte_us=0.01)
    vol = make_volume(workdir, page_count=64, page_size=1024,
                      pages_per_segment=8, latency=latency)
    pool = BufferPool(vol, 4)
    reads = []
    pool.on_page_read = reads.append
    t = pool.prefetch_page(3, now=50.0)
    assert t == 50.0 + latency.cost_us(1024) and reads == [t]
    assert pool.resident(3) and pool.pin_count(3) == 0
    f = pool._frame_of[3]
    assert pool._bits[f] == 0 and pool._usage[f] == 1
    assert (pool.page_reads, vol.device.reads) == (1, 1)
    h, t_fix = pool.try_fix_page(3, now=t)  # a hit: no read, no wait
    assert t_fix == t and (pool.page_reads, vol.device.reads) == (1, 1)
    assert pool._usage[f] == 2
    pool.unfix_page(h)


def test_prefetch_of_a_resident_page_is_free(workdir):
    """A prefetch of a resident page charges nothing, returns its issue
    time, and leaves the page's pin count, latch and usage count alone."""
    pool, vol, _ = make_pool(workdir, capacity=4)
    h, _ = pool.fix_page(2)
    pool.unfix_page(h)
    f = pool._frame_of[2]
    before = (pool._usage[f], pool._bits[f], pool.page_reads, vol.device.reads)
    assert pool.prefetch_page(2, now=77.0) == 77.0
    assert (pool._usage[f], pool._bits[f], pool.page_reads, vol.device.reads) == before
    assert pool.pin_count(2) == 0


class _SilentGate:
    """A restore gate that restores nothing more and records each request;
    of its replacement, only the segments in restored are restored."""

    def __init__(self, replacement, restored=frozenset()):
        self.replacement = replacement
        self.restored = restored
        self.requests = []

    def is_restored(self, seg: int) -> bool:
        return seg in self.restored

    def request_segment(self, seg: int, now: float) -> RestoreHandle:
        self.requests.append((seg, now))
        return RestoreHandle(seg)


def test_prefetch_of_a_gated_page_requests_its_segment(workdir):
    """After the failure, a prefetch of a page whose segment is not
    restored requests that segment and returns its handle at once, without
    waiting on it and without touching either device."""
    pool, vol, _ = make_pool(workdir, capacity=4)
    repl = make_replacement(workdir, page_count=64, page_size=1024, pages_per_segment=8)
    pool.fail_device()
    gate = _SilentGate(repl)
    pool.set_restore_gate(gate)
    out = pool.prefetch_page(17, now=5.0)
    assert isinstance(out, RestoreHandle) and not out.ready
    assert gate.requests == [(vol.geometry.segment_of(17), 5.0)]
    assert not pool.resident(17) and pool.page_reads == 0
    assert repl.device.reads == 0 and vol.device.refused == 0


def test_victim_span_stops_at_a_segment_not_restored(workdir):
    """After the failure a dirty victim's write goes to the replacement and
    carries its cold dirty neighbours only in its own, restored segment:
    a dirty page whose segment is not restored stays in the pool, dirty."""
    pool, vol, _ = make_pool(workdir, capacity=4)
    repl = make_replacement(workdir, page_count=64, page_size=1024, pages_per_segment=8)
    for pid in (16, 17, 15, 14):  # segments 2, 2, 1, 1
        _dirty(pool, pid)
    repl.write_page(vol.read_page(20)[0])  # the miss reads it from segment 2
    pool.fail_device()
    gate = _SilentGate(repl, restored={2})
    pool.set_restore_gate(gate)
    writes, written = repl.device.writes, repl.device.bytes_written
    h, _ = pool.fix_page(20)
    pool.unfix_page(h)
    assert (repl.device.writes, repl.device.bytes_written) == (writes + 1, written + 2 * 1024)
    for pid in (16, 17):
        back, _ = repl.read_page(pid)
        assert back.get(pid) == value_bytes(pid)
    assert pool.resident(15) and pool.resident(14) and pool.dirty_count() == 2
    assert gate.requests == [] and vol.device.refused == 0


def test_failed_prefetch_read_evicts_nothing(workdir, monkeypatch):
    """A prefetch whose read raises leaves the pool as it was: its victim
    stays resident and no frame holds the page it meant to read."""
    pool, vol, _ = make_pool(workdir, capacity=1)
    h, _ = pool.fix_page(0)
    pool.unfix_page(h, mark_dirty=True)

    def fail(page_id, now=0.0):
        raise StorageError("injected read failure")

    monkeypatch.setattr(vol, "read_page", fail)
    with pytest.raises(StorageError, match="injected"):
        pool.prefetch_page(1)
    monkeypatch.undo()
    assert pool.resident(0) and not pool.resident(1)
    assert (pool.evictions, pool.page_reads, pool.dirty_count()) == (0, 1, 1)
    assert pool.pin_count(0) == 0


def test_pinned_never_evicted_under_stress(workdir):
    pool, _, _ = make_pool(workdir, capacity=6, page_count=64)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(400):
                pid = rng.randrange(64)
                h, _ = pool.fix_page(pid)
                if (not pool.resident(pid) or pool.pin_count(pid) < 1
                        or h.page.page_id != pid):
                    errors.append(f"pinned page {pid} vanished")
                pool.unfix_page(h, mark_dirty=rng.random() < 0.3)
        except StorageError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=worker, args=(s,), daemon=True) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


@pytest.mark.parametrize("held, wanted", [("shared", "exclusive"),
                                          ("exclusive", "shared")])
def test_latch_conflict_waits_for_unfix(workdir, held, wanted):
    """A second fix of a held page waits for the unfix, and holds a pin
    while it waits.  Each side is a reader ("shared": unfixes clean) or an
    updater ("exclusive": logs a change and unfixes dirty); the frame's one
    latch makes a reader wait for an updater and an updater for a reader."""
    pool, _, wal = make_pool(workdir)
    seen, logged = [], []

    def access(h, role):
        seen.append(h.page.page_lsn)
        if role == "exclusive":
            lsn, _ = wal.append(4, OP_SET, 0, value_bytes(len(seen)))
            h.page.set(0, value_bytes(len(seen)), page_capacity(1024))
            h.page.page_lsn = lsn
            logged.append(lsn)
        pool.unfix_page(h, mark_dirty=role == "exclusive")

    holder, _ = pool.fix_page(4)
    fixed = threading.Event()

    def fix_and_unfix():
        h, _ = pool.fix_page(4)
        fixed.set()
        access(h, wanted)

    thread = threading.Thread(target=fix_and_unfix)
    thread.start()
    deadline = time.monotonic() + 10.0
    while pool.pin_count(4) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool.pin_count(4) == 2  # the waiter's pin
    assert not fixed.wait(0.3)  # blocked behind the holder's latch
    access(holder, held)
    assert fixed.wait(10.0)
    thread.join(10.0)
    assert not thread.is_alive() and pool.pin_count(4) == 0
    assert pool.dirty_count() == 1 and len(logged) == 1
    if held == "exclusive":
        assert seen[1] == logged[0]  # the waiter sees the holder's update


def test_latch_stress_keeps_updates_whole(workdir):
    """Writers bump page_lsn twice under the frame's latch; readers check
    that it is even and holds still under it.  The total proves no update
    was lost."""
    pool, _, _ = make_pool(workdir, capacity=8, page_count=8)
    rounds, writers, readers = 200, 4, 2
    errors = []

    def write(seed):
        rng = random.Random(seed)
        for _ in range(rounds):
            h, _ = pool.fix_page(rng.randrange(4))
            lsn = h.page.page_lsn
            h.page.page_lsn = lsn + 1
            time.sleep(0)  # hand the interpreter to another thread mid-update
            h.page.page_lsn = lsn + 2
            pool.unfix_page(h, mark_dirty=True)

    def read(seed):
        rng = random.Random(seed)
        for _ in range(rounds):
            h, _ = pool.fix_page(rng.randrange(4))
            lsn = h.page.page_lsn
            time.sleep(0)
            if lsn % 2 or h.page.page_lsn != lsn:
                errors.append(h.page.page_id)
            pool.unfix_page(h)

    threads = ([threading.Thread(target=write, args=(s,)) for s in range(writers)]
               + [threading.Thread(target=read, args=(s,)) for s in range(readers)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    total = 0
    for pid in range(4):
        h, _ = pool.fix_page(pid)
        total += h.page.page_lsn
        pool.unfix_page(h)
    assert total == 2 * rounds * writers


def test_all_pinned_raises(workdir):
    pool, _, _ = make_pool(workdir, capacity=2)
    h1, _ = pool.fix_page(0)
    h2, _ = pool.fix_page(1)
    with pytest.raises(StorageError):
        pool.try_fix_page(2)
    pool.unfix_page(h1)
    pool.unfix_page(h2)


def test_checksum_error_surfaces(workdir):
    pool, vol, _ = make_pool(workdir)
    # corrupt page 5 on disk behind the pool's back
    off = vol.geometry.page_offset(5)
    with open(vol.device.path, "r+b") as f:
        f.seek(off + 30)
        f.write(b"\xff\xff\xff")
    with pytest.raises(ChecksumError):
        pool.fix_page(5)


def test_fail_device_blocks_traffic(workdir):
    pool, vol, _ = make_pool(workdir, capacity=4)
    h, _ = pool.fix_page(0)
    pool.unfix_page(h)
    pool.fail_device()
    assert pool.failed
    with pytest.raises(StorageError):
        pool.fail_device()  # already failed
    ops = vol.device.reads + vol.device.writes
    # resident page: still served from the pool without touching the device
    h, _ = pool.fix_page(0)
    pool.unfix_page(h)
    # missing page with no restore manager attached: surfaced as media failure
    with pytest.raises(MediaFailureError):
        pool.fix_page(1)
    assert vol.device.reads + vol.device.writes == ops


def test_invalid_page_id(workdir):
    pool, _, _ = make_pool(workdir, page_count=16)
    with pytest.raises(StorageError):
        pool.fix_page(16)
