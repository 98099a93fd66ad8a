import os
import random
import sys
import threading
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segstore.archive import ArchiveDirectory, LogArchiver
from segstore.backup import BackupImage
from segstore.bufferpool import Blocked, BufferPool
from segstore.errors import RestoreError, StorageError
from segstore.pages import Page, page_capacity
from segstore.restore import Policy, RestoreManager, SegmentState, replay
from segstore.wal import OP_DELETE, OP_SET, LogRecord

from conftest import closing, make_replacement, make_volume, make_wal, value_bytes

PAGE_SIZE = 1024
CAP = page_capacity(PAGE_SIZE)


class Env(types.SimpleNamespace):
    pass


def build_env(workdir, page_count=64, pages_per_segment=8, pool_pages=16,
              updates=400, seed=1, policy=Policy.PREEMPTIVE, run_size_limit=32,
              batch_cap=4, fail=True):
    """Volume + WAL + pool + backup, a random committed workload, then a
    media failure with the archive caught up and a restore manager, not
    started, attached to the pool."""
    vol = make_volume(workdir, page_count=page_count, page_size=PAGE_SIZE,
                      pages_per_segment=pages_per_segment)
    repl = make_replacement(workdir, page_count=page_count, page_size=PAGE_SIZE,
                            pages_per_segment=pages_per_segment)
    wal = make_wal(workdir)
    pool = BufferPool(vol, pool_pages)
    backup, _ = BackupImage.create(workdir, vol, wal)
    rng = random.Random(seed)
    for i in range(updates):
        pid = rng.randrange(page_count)
        h, _ = pool.fix_page(pid)
        if rng.random() < 0.1:
            lsn, _ = wal.append(pid, OP_DELETE, rng.randrange(8))
            h.page.delete(lsn % 8)
        else:
            key = rng.randrange(8)
            lsn, _ = wal.append(pid, OP_SET, key, value_bytes(i))
            h.page.set(key, value_bytes(i), CAP)
        h.page.page_lsn = lsn
        pool.unfix_page(h, mark_dirty=True)
    directory = ArchiveDirectory(os.path.join(workdir, "archive"), block_size=512)
    closing(vol, repl, wal, backup)
    archiver = LogArchiver(wal, directory, run_size_limit=run_size_limit)
    env = Env(vol=vol, repl=repl, wal=wal, pool=pool, backup=backup,
              directory=directory, archiver=archiver, rng=rng,
              page_count=page_count, pages_per_segment=pages_per_segment)
    if fail:
        pool.fail_device()
        failure_lsn = wal.end_lsn()
        archiver.archive_up_to(failure_lsn)
        env.failure_lsn = failure_lsn
        env.manager = RestoreManager(backup, directory, repl, failure_lsn,
                                     policy=policy, batch_cap=batch_cap)
        pool.set_restore_gate(env.manager)
    return env


def oracle_pages(backup, wal, end_lsn=None):
    """Independent recovery oracle: backup image plus one LSN-order replay
    of the log (below end_lsn, if given), gated per page."""
    pages = {}
    for p in backup.read_page_span(0, backup.geometry.page_count)[0]:
        pages[p.page_id] = p
    for rec in wal.scan(0):
        if rec.lsn >= backup.min_lsn and (end_lsn is None or rec.lsn < end_lsn):
            replay_per_record(pages[rec.page_id], [rec])
    return pages


def replay_per_record(page, records):
    """Reference replay: apply each record past the page LSN in turn."""
    for rec in records:
        if rec.lsn <= page.page_lsn:
            continue
        if rec.op == OP_SET:
            page.set(rec.key, rec.value)
        else:
            page.delete(rec.key)
        page.page_lsn = rec.lsn
    return page


# -- replay ----------------------------------------------------------------------

def test_replay_empty_stream_is_identity():
    page = Page(3, page_lsn=40, records={1: value_bytes(1)})
    before = page.copy()
    assert replay(page, []) == before


def test_replay_gates_on_page_lsn():
    page = Page(3, page_lsn=50)
    recs = [LogRecord(40, 3, OP_SET, 1, value_bytes(40)),
            LogRecord(60, 3, OP_SET, 2, value_bytes(60))]
    replay(page, recs)
    assert page.page_lsn == 60
    assert page.get(1) is None  # lsn 40 already reflected
    assert page.get(2) == value_bytes(60)


def test_replay_idempotent():
    page = Page(3)
    recs = [LogRecord(10, 3, OP_SET, 1, value_bytes(1)),
            LogRecord(30, 3, OP_DELETE, 1),
            LogRecord(50, 3, OP_SET, 2, value_bytes(2))]
    once = replay(page.copy(), recs)
    twice = replay(replay(page.copy(), recs), recs)
    assert once == twice


def test_replay_rejects_wrong_page():
    page = Page(3)
    with pytest.raises(AssertionError):
        replay(page, [LogRecord(10, 4, OP_SET, 1, value_bytes(1))])


def test_replay_random_histories_match_fold(workdir):
    rng = random.Random(77)
    for _ in range(50):
        base = Page(0)
        state = {}
        recs = []
        lsn = 1
        for i in range(rng.randrange(1, 60)):
            key = rng.randrange(6)
            if rng.random() < 0.2:
                recs.append(LogRecord(lsn, 0, OP_DELETE, key))
                state.pop(key, None)
            else:
                recs.append(LogRecord(lsn, 0, OP_SET, key, value_bytes(i)))
                state[key] = value_bytes(i)
            lsn += 10
        replay(base, recs)
        assert base.records == state
        assert base.page_lsn == recs[-1].lsn


_history = st.lists(st.tuples(st.integers(1, 40),       # lsn gap to the previous record
                              st.integers(0, 7),        # key
                              st.booleans()),           # delete?
                    max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 7), st.integers(0, 2 ** 16), max_size=8),
       _history, st.integers(0, 400))
def test_folded_replay_matches_per_record_replay(start, history, page_lsn):
    """Replay folds records per key before writing the page; the page must
    come out byte-equal to one that applied every record in turn, with
    records at, below and above the page LSN."""
    page = Page(9, page_lsn, {k: value_bytes(v) for k, v in start.items()})
    recs, lsn = [], 0
    for i, (gap, key, delete) in enumerate(history):
        lsn += gap
        recs.append(LogRecord(lsn, 9, OP_DELETE, key) if delete
                    else LogRecord(lsn, 9, OP_SET, key, value_bytes(i)))
    folded = replay(page.copy(), iter(recs))
    reference = replay_per_record(page.copy(), recs)
    assert folded.to_bytes(PAGE_SIZE) == reference.to_bytes(PAGE_SIZE)
    assert folded == reference


# -- segment states ---------------------------------------------------------------

def test_bitmap_transitions(workdir):
    """A segment goes NOT_RESTORED -> RESTORING -> RESTORED once: one
    request claims it, a second only waits, and restored is terminal."""
    env = build_env(workdir, page_count=32, pages_per_segment=8,
                    policy=Policy.ON_DEMAND)
    mgr = env.manager
    assert mgr.segment_count == 4
    assert mgr.state(1) == SegmentState.NOT_RESTORED and not mgr.is_restored(1)
    handle = mgr.request_segment(1, 3.0)
    assert mgr.state(1) == SegmentState.RESTORING and not mgr.is_restored(1)
    handle2 = mgr.request_segment(1, 4.0)
    assert handle2 is handle and mgr.queue_depth() == 1 and mgr.demand_requests == 1
    worked, t_done = mgr.step()
    assert worked and mgr.is_restored(1) and mgr.state(1) == SegmentState.RESTORED
    assert handle.done and handle.done_at == t_done >= 3.0
    assert mgr.restored_count == 1 and mgr.handle(1) is handle
    # restored is terminal: a request neither claims nor queues it again,
    # and a restore of it again is refused before any transfer
    assert mgr.request_segment(1) is handle and mgr.queue_depth() == 0
    io = (env.repl.device.writes, env.backup.device.reads)
    with pytest.raises(RestoreError, match="without restoring state"):
        mgr._restore_batch(1, 1, 0.0, 0)
    assert mgr.restored_count == 1
    assert (env.repl.device.writes, env.backup.device.reads) == io
    for bad in (4, -1):
        with pytest.raises(RestoreError, match="out of range"):
            mgr.state(bad)
        with pytest.raises(RestoreError, match="out of range"):
            mgr.request_segment(bad)


def test_bitmap_single_winner_under_threads(workdir):
    """16 threads requesting one segment at once: one claims and queues
    it, and all share its handle.  Repeated on every segment."""
    env = build_env(workdir, policy=Policy.ON_DEMAND)
    mgr = env.manager
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seg in range(mgr.segment_count):
            barrier = threading.Barrier(16)
            handles = []

            def contend():
                barrier.wait()
                handles.append(mgr.request_segment(seg))

            threads = [threading.Thread(target=contend) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert mgr.demand_requests == seg + 1 and mgr.queue_depth() == seg + 1
            assert len(handles) == 16 and all(h is handles[0] for h in handles)
            assert mgr.state(seg) == SegmentState.RESTORING
    finally:
        sys.setswitchinterval(interval)


def test_bitmap_failure_and_retry(workdir):
    """A failed attempt keeps the segment's claim and re-queues it; the
    last attempt gives it up and releases its waiters with the error; a
    later request starts it afresh with a new handle."""
    env = build_env(workdir, policy=Policy.ON_DEMAND)
    mgr = env.manager

    def always_fails(first, end, now=0.0):
        raise StorageError("boom")

    env.backup.fetch_page_span = always_fails
    handle = mgr.request_segment(0)
    for attempt in range(1, 3):
        assert mgr.step()[0]
        # a retried segment keeps its claim
        assert mgr.state(0) == SegmentState.RESTORING
        assert handle.attempts == attempt and not handle.ready
        assert mgr.request_segment(0) is handle and mgr.queue_depth() == 1
        assert mgr.demand_requests == 1
    assert mgr.step()[0]
    assert mgr.state(0) == SegmentState.NOT_RESTORED and mgr.queue_depth() == 0
    assert handle.attempts == 3 and mgr.attempt_count[0] == 3
    with pytest.raises(RestoreError, match="boom"):
        handle.wait(0.1)
    # a fresh attempt gets a clean incarnation
    handle2 = mgr.request_segment(0)
    assert handle2 is not handle and not handle2.ready and handle2.attempts == 0
    assert mgr.state(0) == SegmentState.RESTORING and mgr.demand_requests == 2


# -- restore manager preconditions ---------------------------------------------------

def test_restore_requires_archive_past_failure(workdir):
    env = build_env(workdir, fail=False)
    env.pool.fail_device()
    failure_lsn = env.wal.end_lsn()
    with pytest.raises(RestoreError):
        RestoreManager(env.backup, env.directory, env.repl, failure_lsn)
    env.archiver.archive_up_to(failure_lsn)
    env.pool.set_restore_gate(
        RestoreManager(env.backup, env.directory, env.repl, failure_lsn))
    assert env.pool.live_volume is env.repl


def test_restore_requires_failed_device(workdir):
    """A live pool refuses a restore manager and keeps serving misses from
    its database volume."""
    env = build_env(workdir, fail=False)
    env.archiver.archive_up_to(env.wal.end_lsn())
    mgr = RestoreManager(env.backup, env.directory, env.repl, env.wal.end_lsn())
    with pytest.raises(RestoreError, match="has not failed"):
        env.pool.set_restore_gate(mgr)
    assert env.pool.live_volume is env.vol
    reads = (env.vol.device.reads, env.repl.device.reads)
    miss = next(pid for pid in range(env.page_count) if not env.pool.resident(pid))
    handle, _ = env.pool.fix_page(miss)
    env.pool.unfix_page(handle)
    assert (env.vol.device.reads, env.repl.device.reads) == (reads[0] + 1, reads[1])


def test_restore_requires_matching_geometry(workdir):
    env = build_env(workdir)
    other = make_replacement(workdir, page_count=env.page_count, page_size=PAGE_SIZE,
                             pages_per_segment=env.pages_per_segment * 2,
                             name="other.db")
    closing(other)
    with pytest.raises(RestoreError, match="geometry"):
        RestoreManager(env.backup, env.directory, other, env.failure_lsn)


def test_restore_requires_positive_batch_cap(workdir):
    env = build_env(workdir)
    with pytest.raises(RestoreError, match="batch_cap"):
        RestoreManager(env.backup, env.directory, env.repl, env.failure_lsn,
                       batch_cap=0)
    RestoreManager(env.backup, env.directory, env.repl, env.failure_lsn,
                   batch_cap=1)


def test_restore_on_empty_history(workdir):
    vol = make_volume(workdir, page_count=16, page_size=PAGE_SIZE, pages_per_segment=4)
    repl = make_replacement(workdir, page_count=16, page_size=PAGE_SIZE,
                            pages_per_segment=4)
    wal = make_wal(workdir)
    pool = BufferPool(vol, 4)
    backup, _ = BackupImage.create(workdir, vol, wal)
    directory = ArchiveDirectory(os.path.join(workdir, "archive"))
    closing(vol, repl, wal, backup)
    pool.fail_device()
    failure_lsn = wal.end_lsn()
    mgr = RestoreManager(backup, directory, repl, failure_lsn,
                         policy=Policy.SINGLE_PASS)
    pool.set_restore_gate(mgr)
    mgr.drain()
    assert mgr.complete
    for pid in range(16):
        page, _ = repl.read_page(pid)
        assert page.records == {} and page.page_lsn == 0


# -- restoration correctness ---------------------------------------------------------

@pytest.mark.parametrize("policy", list(Policy))
def test_full_restore_matches_oracle(workdir, policy):
    env = build_env(workdir, policy=policy, seed=hash(policy.value) % 1000)
    mgr = env.manager
    if policy == Policy.ON_DEMAND:
        for seg in range(mgr.segment_count):
            mgr.request_segment(seg)
    mgr.drain()
    assert mgr.complete
    want = oracle_pages(env.backup, env.wal)
    for pid in range(env.page_count):
        got, _ = env.repl.read_page(pid)
        assert got == want[pid], f"page {pid} diverged under {policy}"


def test_policies_agree_byte_for_byte_on_same_history(workdir):
    """One failure, three fresh replacement volumes: every policy (plus the
    independent oracle) must produce the identical device image."""
    env = build_env(workdir, seed=123)
    images = {}
    for policy in Policy:
        repl = make_replacement(workdir, page_count=env.page_count, page_size=PAGE_SIZE,
                                pages_per_segment=env.pages_per_segment,
                                name=f"repl_{policy.value}.db")
        mgr = RestoreManager(env.backup, env.directory, repl, env.failure_lsn,
                             policy=policy)
        if policy == Policy.ON_DEMAND:
            for seg in range(mgr.segment_count):
                mgr.request_segment(seg)
        mgr.drain()
        assert mgr.complete
        repl.close()
        with open(os.path.join(workdir, f"repl_{policy.value}.db"), "rb") as f:
            images[policy] = f.read()
    assert len(set(images.values())) == 1
    oracle = oracle_pages(env.backup, env.wal)
    vol = make_replacement(workdir, page_count=env.page_count, page_size=PAGE_SIZE,
                           pages_per_segment=env.pages_per_segment, name="oracle.db")
    for pid in range(env.page_count):
        vol.write_page(oracle[pid])
    vol.close()
    with open(os.path.join(workdir, "oracle.db"), "rb") as f:
        assert f.read() == images[Policy.PREEMPTIVE]


def test_restore_reads_no_log_past_the_failure(workdir):
    """A record appended after the failure is archived into a run that
    begins at the failure LSN.  Restoring its page's segment skips that run
    and replays only the log below the failure LSN; the engine appends
    later log only for pages resident in the pool, which write back the
    newer image once their segment is restored."""
    env = build_env(workdir, policy=Policy.ON_DEMAND)
    mgr = env.manager
    pid = 5
    seg = env.vol.geometry.segment_of(pid)
    assert not mgr.is_restored(seg)
    env.wal.append(pid, OP_SET, 0, value_bytes(10_000))
    env.archiver.archive_up_to(env.wal.end_lsn())
    late = env.directory.snapshot()[-1]
    assert late.begin_lsn == env.failure_lsn and late.block_span(pid, pid) != (0, 0)
    late_scans, probes = [], []
    real_scan, real_probe = late.scan_range, env.directory.probe

    def scan_range(*args, **kw):
        late_scans.append(args)
        return real_scan(*args, **kw)

    def probe(*args, **kw):
        probes.append(real_probe(*args, **kw))
        return probes[-1]

    late.scan_range, env.directory.probe = scan_range, probe
    mgr.request_segment(seg)
    mgr.drain()
    assert mgr.is_restored(seg)
    [result] = probes
    assert not late_scans
    first, end = env.vol.geometry.segment_span(seg)
    unbounded = real_probe(first, end - 1, env.backup.min_lsn)
    assert result.runs_skipped == unbounded.runs_skipped + 1
    got, _ = env.repl.read_page(pid)
    assert got == oracle_pages(env.backup, env.wal, env.failure_lsn)[pid]
    assert got != oracle_pages(env.backup, env.wal)[pid]


def test_untouched_segment_restores_to_backup_bytes(workdir):
    env = build_env(workdir, updates=0)
    mgr = env.manager
    mgr.request_segment(3)
    mgr.drain()
    first, end = env.repl.geometry.segment_span(3)
    pages, _ = env.repl.read_page_span(first, end)
    backup_pages, _ = env.backup.read_page_span(first, end)
    assert pages == backup_pages


def test_request_restored_segment_immediate(workdir):
    env = build_env(workdir)
    mgr = env.manager
    mgr.request_segment(2)
    mgr.drain()
    handle = mgr.request_segment(2)
    assert handle.done and handle.done_at is not None
    assert mgr.queue_depth() == 0


def test_demand_served_fifo(workdir):
    env = build_env(workdir, policy=Policy.ON_DEMAND)
    mgr = env.manager
    order = [5, 1, 7, 3]
    for seg in order:
        mgr.request_segment(seg)
    restored_order = []
    mgr.on_restore = lambda t0, t1, first, count, nb, qd: restored_order.append(first)
    mgr.drain()
    assert restored_order == order
    assert mgr.restored_count == len(order)  # on-demand restores only demand
    assert not mgr.has_pending_work()


def test_status_counters(workdir):
    env = build_env(workdir, policy=Policy.SINGLE_PASS)
    mgr = env.manager
    assert (mgr.restored_count, mgr.segment_count) == (0, 8)
    mgr.drain()
    assert (mgr.restored_count, mgr.segment_count) == (8, 8)
    geo = env.repl.geometry
    assert mgr.bytes_restored == geo.page_count * geo.page_size
    assert mgr.queue_depth() == 0


def test_preemptive_sweep_growth_and_completion(workdir):
    env = build_env(workdir, page_count=128, pages_per_segment=8,
                    policy=Policy.PREEMPTIVE, batch_cap=4)
    mgr = env.manager
    batches = []
    mgr.on_restore = lambda t0, t1, first, count, nb, qd: batches.append(count)
    mgr.drain()  # zero demand: pure sequential sweep
    assert mgr.complete
    assert batches[:3] == [1, 2, 4]  # doubling up to the cap
    assert all(b <= 4 for b in batches)


def test_saturated_queue_keeps_batches_at_one(workdir):
    env = build_env(workdir, policy=Policy.PREEMPTIVE, batch_cap=8)
    mgr = env.manager
    batches = []
    mgr.on_restore = lambda t0, t1, first, count, nb, qd: batches.append(count)
    for seg in range(mgr.segment_count):
        mgr.request_segment(seg)
    mgr.drain()
    assert mgr.complete
    assert all(b == 1 for b in batches)  # demand always preempted the sweep


def test_singlepass_serves_waiters_without_queue(workdir):
    env = build_env(workdir, policy=Policy.SINGLE_PASS, batch_cap=2)
    mgr = env.manager
    handle = mgr.request_segment(6)
    assert mgr.queue_depth() == 0  # single-pass ignores the queue
    mgr.drain()
    assert handle.done
    assert mgr.complete


def test_preemptive_thread_completes_with_zero_demand(workdir):
    env = build_env(workdir, policy=Policy.PREEMPTIVE)
    mgr = env.manager
    mgr.start()
    deadline = 10.0
    import time
    t0 = time.monotonic()
    while not mgr.complete and time.monotonic() - t0 < deadline:
        time.sleep(0.005)
    mgr.stop()
    assert mgr.complete


def test_replacement_never_read_before_restored(workdir):
    """A page is only ever served from the replacement once its segment is
    restored."""
    env = build_env(workdir, pool_pages=4, policy=Policy.ON_DEMAND)
    mgr = env.manager
    mgr.start()
    real_read = env.repl.read_page
    violations = []

    def checked(page_id, now=0.0):
        if not mgr.is_restored(env.vol.geometry.segment_of(page_id)):
            violations.append(page_id)
        return real_read(page_id, now)

    env.repl.read_page = checked
    for pid in random.Random(3).sample(range(env.page_count), 16):
        handle, _ = env.pool.fix_page(pid, timeout=30.0)
        env.pool.unfix_page(handle)
    mgr.stop()
    assert violations == []


def test_exactly_once_under_16_threads(workdir):
    env = build_env(workdir, page_count=128, pages_per_segment=8,
                    policy=Policy.ON_DEMAND)
    mgr = env.manager
    mgr.start()
    errors = []

    def hammer(seed):
        rng = random.Random(seed)
        try:
            for _ in range(60):
                seg = rng.randrange(mgr.segment_count)
                mgr.request_segment(seg).wait(timeout=30.0)
        except StorageError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=hammer, args=(s,), daemon=True) for s in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    mgr.stop()
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(n == 1 for n in mgr.success_count.values())
    assert all(n == 1 for n in mgr.attempt_count.values())


def test_error_reverts_retries_then_fails_fast(workdir):
    env = build_env(workdir, policy=Policy.ON_DEMAND)
    mgr = env.manager
    real_fetch = env.backup.fetch_page_span
    failures = {"n": 0}

    def flaky(first, end, now=0.0):
        if failures["n"] > 0:
            failures["n"] -= 1
            raise StorageError("injected backup read failure")
        return real_fetch(first, end, now)

    env.backup.fetch_page_span = flaky
    # one transient failure: retried transparently, waiter succeeds
    failures["n"] = 1
    handle = mgr.request_segment(1, 7.0)
    assert mgr.step() == (True, 7.0)  # the failed attempt is work done at its start
    assert mgr.state(1) == SegmentState.RESTORING and mgr.queue_depth() == 1
    assert handle.attempts == 1 and not handle.ready
    mgr.drain()
    assert handle.done
    assert mgr.attempt_count[1] == 2 and mgr.success_count[1] == 1
    # persistent failure: three attempts, then the waiter sees the error
    failures["n"] = 99
    handle2 = mgr.request_segment(2)
    for attempt in range(1, 4):
        assert mgr.step()[0]
        assert handle2.attempts == attempt and mgr.attempt_count[2] == attempt
    assert handle2.ready and mgr.state(2) == SegmentState.NOT_RESTORED
    with pytest.raises(RestoreError):
        handle2.wait(0.1)
    assert failures["n"] == 96
    assert not mgr.has_pending_work()  # gave up; no infinite requeue
    # a fresh request gets a clean retry budget
    env.backup.fetch_page_span = real_fetch
    handle3 = mgr.request_segment(2)
    mgr.drain()
    assert handle3.done


def test_single_pass_retries_transient_fetch_failure(workdir):
    """A failed sweep batch is swept again, whole, not left behind the
    cursor."""
    env = build_env(workdir, policy=Policy.SINGLE_PASS, batch_cap=2)
    mgr = env.manager
    assert mgr.segment_count == 8
    real_fetch = env.backup.fetch_page_span
    failures = {"n": 1}

    def flaky(first, end, now=0.0):
        if failures["n"] > 0:
            failures["n"] -= 1
            raise StorageError("injected backup read failure")
        return real_fetch(first, end, now)

    env.backup.fetch_page_span = flaky
    assert mgr.step()[0]
    assert [mgr.state(seg) for seg in (0, 1)] == [SegmentState.RESTORING] * 2
    assert mgr.queue_depth() == 2 and mgr.handle(0).attempts == 1
    batches = []
    mgr.on_restore = lambda t0, t1, first, count, nb, qd: batches.append((first, count, qd))
    mgr.drain()
    # the retry is one two-segment batch, both segments queued when it began
    assert batches == [(0, 2, 2), (2, 2, 0), (4, 2, 0), (6, 2, 0)]
    assert mgr.complete and mgr.restored_count == 8
    assert mgr.queue_depth() == 0
    assert not mgr.has_pending_work()
    assert [mgr.success_count.get(seg) for seg in range(8)] == [1] * 8


def test_thread_sleeps_once_a_segment_gives_up(workdir):
    """A segment that used up its attempts leaves restore incomplete; the
    scheduler thread then waits for new work instead of polling."""
    env = build_env(workdir, policy=Policy.PREEMPTIVE)
    mgr = env.manager
    bad = 3
    bad_first, bad_end = env.backup.geometry.segment_span(bad)
    real_fetch = env.backup.fetch_page_span

    def broken(first, end, now=0.0):
        if first < bad_end and bad_first < end:
            raise StorageError("injected permanent backup read failure")
        return real_fetch(first, end, now)

    env.backup.fetch_page_span = broken
    real_step = mgr.step
    steps = []

    def counted(now=0.0):
        steps.append(now)
        return real_step(now)

    mgr.step = counted
    mgr.start()
    try:
        deadline = time.monotonic() + 10.0
        handle = mgr.handle(bad)
        while not (handle.ready and mgr.restored_count == mgr.segment_count - 1):
            assert time.monotonic() < deadline, "restore never settled"
            time.sleep(0.005)
            handle = mgr.handle(bad)
        assert handle.error is not None
        before = len(steps)
        time.sleep(0.3)
        assert len(steps) - before <= 1
    finally:
        mgr.stop()


@pytest.mark.parametrize("policy", [Policy.PREEMPTIVE, Policy.SINGLE_PASS])
def test_given_up_segment_fails_alone_and_leaves_no_work(workdir, policy):
    """A segment that always fails is retried alone: the rest of its batch
    is restored for its waiters, and once only the given-up segment is
    left the scheduler reports no work and does none."""
    env = build_env(workdir, policy=policy, batch_cap=4)
    mgr = env.manager
    assert mgr.segment_count == 8
    bad = 3
    bad_first, bad_end = env.backup.geometry.segment_span(bad)
    real_fetch = env.backup.fetch_page_span

    def broken(first, end, now=0.0):
        if first < bad_end and bad_first < end:
            raise StorageError("injected permanent backup read failure")
        return real_fetch(first, end, now)

    env.backup.fetch_page_span = broken
    handles = [mgr.handle(seg) for seg in range(8)]
    t = 0.0
    for _ in range(50):  # bounded: a scheduler that keeps reporting work spins
        if not mgr.has_pending_work():
            break
        worked, t = mgr.step(t)
        assert worked
    assert mgr.restored_count == 7
    assert [h.done for h in handles] == [seg != bad for seg in range(8)]
    assert handles[bad].error is not None
    assert not mgr.has_pending_work()
    assert mgr.step(t) == (False, t)


def test_single_pass_request_reoffers_given_up_segment(workdir):
    """Behind the sweep cursor a request claims a given-up segment and
    queues it, so it is restored once its fault clears."""
    env = build_env(workdir, policy=Policy.SINGLE_PASS, batch_cap=4)
    mgr = env.manager
    assert mgr.segment_count == 8
    bad = 3
    bad_first, bad_end = env.backup.geometry.segment_span(bad)
    real_fetch = env.backup.fetch_page_span
    faulty = [True]

    def broken(first, end, now=0.0):
        if faulty[0] and first < bad_end and bad_first < end:
            raise StorageError("injected backup read failure")
        return real_fetch(first, end, now)

    env.backup.fetch_page_span = broken
    t = 0.0
    for _ in range(50):
        if not mgr.has_pending_work():
            break
        worked, t = mgr.step(t)
        assert worked
    assert mgr.restored_count == 7
    assert mgr.handle(bad).error is not None
    faulty[0] = False
    handle = mgr.request_segment(bad, t)
    assert not handle.ready and mgr.queue_depth() == 1
    mgr.drain(t)
    assert handle.done
    assert mgr.complete and mgr.restored_count == 8


# -- buffer pool integration -----------------------------------------------------------

def test_blocked_fix_resolves_after_restore(workdir):
    env = build_env(workdir, pool_pages=4, policy=Policy.ON_DEMAND)
    mgr = env.manager
    # pick a page that is not resident so the fix must go through restore
    victim = next(pid for pid in range(env.page_count)
                  if not env.pool.resident(pid))
    out = env.pool.try_fix_page(victim)
    assert isinstance(out, Blocked)
    assert out.segment_id == env.vol.geometry.segment_of(victim)
    # cooperative retry loop: drain whatever the pool demands (the read
    # segment first, possibly an eviction victim's segment after)
    while True:
        mgr.drain()
        out = env.pool.try_fix_page(victim)
        if not isinstance(out, Blocked):
            break
    handle, _ = out
    want = oracle_pages(env.backup, env.wal)[victim]
    assert handle.page == want  # page_lsn equals the last archived update
    env.pool.unfix_page(handle)


def test_threaded_fix_blocks_until_restored(workdir):
    env = build_env(workdir, pool_pages=4, policy=Policy.ON_DEMAND)
    mgr = env.manager
    mgr.start()
    victim = next(pid for pid in range(env.page_count)
                  if not env.pool.resident(pid))
    handle, _ = env.pool.fix_page(victim, timeout=30.0)
    assert mgr.is_restored(env.vol.geometry.segment_of(victim))
    want = oracle_pages(env.backup, env.wal)[victim]
    assert handle.page == want
    env.pool.unfix_page(handle)
    mgr.stop()


def test_dirty_pool_page_survives_restore_and_overwrites(workdir):
    env = build_env(workdir, pool_pages=32, updates=100, seed=9, fail=False)
    # dirty one page in the pool, then lose the device before it flushes
    h, _ = env.pool.fix_page(7)
    lsn, _ = env.wal.append(7, OP_SET, 3, value_bytes(999))
    h.page.set(3, value_bytes(999), CAP)
    h.page.page_lsn = lsn
    env.pool.unfix_page(h, mark_dirty=True)
    env.pool.fail_device()
    failure_lsn = env.wal.end_lsn()
    env.archiver.archive_up_to(failure_lsn)
    mgr = RestoreManager(env.backup, env.directory, env.repl, failure_lsn,
                         policy=Policy.PREEMPTIVE)
    env.pool.set_restore_gate(mgr)
    mgr.drain()
    # the pool copy is untouched and newer-or-equal to the archived image
    assert env.pool.resident(7)
    h, _ = env.pool.fix_page(7)
    assert h.page.page_lsn == lsn and h.page.get(3) == value_bytes(999)
    env.pool.unfix_page(h)
    restored, _ = env.repl.read_page(7)
    assert restored.page_lsn == lsn  # update was logged, hence archived
    env.pool.flush_page(7)
    flushed, _ = env.repl.read_page(7)
    assert flushed.get(3) == value_bytes(999)
