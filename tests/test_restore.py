import os
import random
import threading
import types

import pytest

from segstore.archive import ArchiveDirectory, LogArchiver
from segstore.backup import BackupImage
from segstore.bufferpool import Blocked, BufferPool
from segstore.device import DeviceRole
from segstore.errors import BrokenChainError, RestoreError, StorageError
from segstore.pages import Page, page_capacity, segment_of
from segstore.restore import (Policy, RestoreContext, SegmentBitmap,
                              SegmentState, begin_restore, replay,
                              single_page_repair)
from segstore.wal import OP_DELETE, OP_SET, LogRecord

from conftest import make_volume, make_wal, value_bytes

PAGE_SIZE = 1024
CAP = page_capacity(PAGE_SIZE)


class Env(types.SimpleNamespace):
    pass


def build_env(workdir, page_count=64, pages_per_segment=8, pool_pages=16,
              updates=400, seed=1, policy=Policy.PREEMPTIVE, run_size_limit=32,
              batch_cap=4, fail=True):
    """Volume + WAL + pool + backup, a random committed workload, then a
    media failure with the archive caught up."""
    vol = make_volume(workdir, page_count=page_count, page_size=PAGE_SIZE,
                      pages_per_segment=pages_per_segment)
    repl = make_volume(workdir, page_count=page_count, page_size=PAGE_SIZE,
                       pages_per_segment=pages_per_segment, name="repl.db",
                       role=DeviceRole.REPLACEMENT)
    wal = make_wal(workdir)
    pool = BufferPool(vol, wal, pool_pages, replacement=repl)
    backup, _ = BackupImage.create(workdir, vol, wal)
    rng = random.Random(seed)
    for i in range(updates):
        pid = rng.randrange(page_count)
        h, _ = pool.fix_page(pid)
        if rng.random() < 0.1:
            lsn, _ = wal.append(pid, 1, OP_DELETE, rng.randrange(8))
            h.page.delete(lsn % 8)
        else:
            key = rng.randrange(8)
            lsn, _ = wal.append(pid, 1, OP_SET, key, value_bytes(i))
            h.page.set(key, value_bytes(i), CAP)
        h.page.page_lsn = lsn
        pool.unfix_page(h, mark_dirty=True)
    directory = ArchiveDirectory(os.path.join(workdir, "archive"), block_size=512)
    archiver = LogArchiver(wal, directory, run_size_limit=run_size_limit)
    env = Env(vol=vol, repl=repl, wal=wal, pool=pool, backup=backup,
              directory=directory, archiver=archiver, rng=rng,
              page_count=page_count, pages_per_segment=pages_per_segment)
    if fail:
        token = pool.fail_device()
        archiver.archive_up_to(token.failure_lsn)
        env.token = token
        env.context = RestoreContext(
            backup=backup, archive=directory, replacement=repl,
            failure_lsn=token.failure_lsn, policy=policy,
            batch_cap=batch_cap, buffer_pool=pool)
    return env


def oracle_pages(backup, wal):
    """Independent recovery oracle: backup image plus one LSN-order replay
    of the whole log, gated per page."""
    pages = {}
    for seg in range(backup.geometry.segment_count):
        for p in backup.read_segment(seg)[0]:
            pages[p.page_id] = p
    for rec in wal.scan(0):
        if rec.lsn < backup.min_lsn:
            continue
        page = pages[rec.page_id]
        if rec.lsn <= page.page_lsn:
            continue
        if rec.op == OP_SET:
            page.records[rec.key] = rec.value
        else:
            page.records.pop(rec.key, None)
        page.page_lsn = rec.lsn
    return pages


def delete_leftover(records):
    return records


# -- replay ----------------------------------------------------------------------

def test_replay_empty_stream_is_identity():
    page = Page(3, page_lsn=40, records={1: value_bytes(1)})
    before = page.copy()
    assert replay(page, []) == before


def test_replay_gates_on_page_lsn():
    page = Page(3, page_lsn=50)
    recs = [LogRecord(40, 3, 1, 0, OP_SET, 1, value_bytes(40)),
            LogRecord(60, 3, 1, 40, OP_SET, 2, value_bytes(60))]
    replay(page, recs)
    assert page.page_lsn == 60
    assert page.get(1) is None  # lsn 40 already reflected
    assert page.get(2) == value_bytes(60)


def test_replay_idempotent():
    page = Page(3)
    recs = [LogRecord(10, 3, 1, 0, OP_SET, 1, value_bytes(1)),
            LogRecord(30, 3, 1, 10, OP_DELETE, 1),
            LogRecord(50, 3, 1, 30, OP_SET, 2, value_bytes(2))]
    once = replay(page.copy(), recs)
    twice = replay(replay(page.copy(), recs), recs)
    assert once == twice


def test_replay_rejects_wrong_page():
    page = Page(3)
    with pytest.raises(AssertionError):
        replay(page, [LogRecord(10, 4, 1, 0, OP_SET, 1, value_bytes(1))])


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
                recs.append(LogRecord(lsn, 0, 1, 0, OP_DELETE, key))
                state.pop(key, None)
            else:
                recs.append(LogRecord(lsn, 0, 1, 0, OP_SET, key, value_bytes(i)))
                state[key] = value_bytes(i)
            lsn += 10
        replay(base, recs)
        assert base.records == state
        assert base.page_lsn == recs[-1].lsn


# -- bitmap -----------------------------------------------------------------------

def test_bitmap_transitions():
    bm = SegmentBitmap(4)
    assert bm.state(1) == SegmentState.NOT_RESTORED
    won, handle = bm.try_begin(1)
    assert won and bm.state(1) == SegmentState.RESTORING
    won2, handle2 = bm.try_begin(1)
    assert not won2
    bm.mark_restored(1, done_at=5.0)
    assert bm.is_restored(1)
    assert handle.done and handle2.done and handle.done_at == 5.0
    assert bm.restored_count == 1
    with pytest.raises(RestoreError):
        bm.mark_restored(1, 6.0)  # restored is terminal
    with pytest.raises(RestoreError):
        bm.state(4)


def test_bitmap_single_winner_under_threads():
    bm = SegmentBitmap(1)
    wins = []
    barrier = threading.Barrier(16)

    def contend():
        barrier.wait()
        won, _ = bm.try_begin(0)
        if won:
            wins.append(1)

    threads = [threading.Thread(target=contend) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(wins) == 1


def test_bitmap_failure_and_retry():
    bm = SegmentBitmap(2)
    bm.try_begin(0)
    assert bm.record_failure(0, StorageError("boom"), max_attempts=3)
    assert bm.state(0) == SegmentState.NOT_RESTORED
    bm.try_begin(0)
    assert bm.record_failure(0, StorageError("boom"), max_attempts=3)
    won, handle = bm.try_begin(0)
    assert not bm.record_failure(0, StorageError("boom"), max_attempts=3)
    with pytest.raises(RestoreError):
        handle.wait(0.1)
    # a fresh attempt gets a clean incarnation
    won, handle2 = bm.try_begin(0)
    assert won and not handle2.ready


# -- begin_restore preconditions ----------------------------------------------------

def test_begin_restore_requires_caught_up_archive(workdir):
    env = build_env(workdir, fail=False)
    token = env.pool.fail_device()
    ctx = RestoreContext(backup=env.backup, archive=env.directory,
                         replacement=env.repl, failure_lsn=token.failure_lsn,
                         buffer_pool=env.pool)
    with pytest.raises(RestoreError):
        begin_restore(ctx, start_thread=False)
    env.archiver.archive_up_to(token.failure_lsn)
    begin_restore(ctx, start_thread=False)


def test_begin_restore_requires_failed_device(workdir):
    env = build_env(workdir, fail=False)
    env.archiver.archive_up_to(env.wal.end_lsn())
    ctx = RestoreContext(backup=env.backup, archive=env.directory,
                         replacement=env.repl, failure_lsn=env.wal.end_lsn(),
                         buffer_pool=env.pool)
    with pytest.raises(RestoreError):
        begin_restore(ctx, start_thread=False)


def test_begin_restore_on_empty_history(workdir):
    vol = make_volume(workdir, page_count=16, page_size=PAGE_SIZE, pages_per_segment=4)
    repl = make_volume(workdir, page_count=16, page_size=PAGE_SIZE,
                       pages_per_segment=4, name="repl.db",
                       role=DeviceRole.REPLACEMENT)
    wal = make_wal(workdir)
    pool = BufferPool(vol, wal, 4, replacement=repl)
    backup, _ = BackupImage.create(workdir, vol, wal)
    directory = ArchiveDirectory(os.path.join(workdir, "archive"))
    token = pool.fail_device()
    ctx = RestoreContext(backup=backup, archive=directory, replacement=repl,
                         failure_lsn=token.failure_lsn, buffer_pool=pool,
                         policy=Policy.SINGLE_PASS)
    mgr = begin_restore(ctx, start_thread=False)
    mgr.drain()
    assert mgr.complete
    for pid in range(16):
        page, _ = repl.read_page(pid)
        assert page.records == {} and page.page_lsn == 0


# -- restoration correctness ---------------------------------------------------------

@pytest.mark.parametrize("policy", list(Policy))
def test_full_restore_matches_oracle(workdir, policy):
    env = build_env(workdir, policy=policy, seed=hash(policy.value) % 1000)
    mgr = begin_restore(env.context, start_thread=False)
    if policy == Policy.ON_DEMAND:
        for seg in range(mgr.bitmap.total):
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
        repl = make_volume(workdir, page_count=env.page_count, page_size=PAGE_SIZE,
                           pages_per_segment=env.pages_per_segment,
                           name=f"repl_{policy.value}.db",
                           role=DeviceRole.REPLACEMENT)
        ctx = RestoreContext(backup=env.backup, archive=env.directory,
                             replacement=repl, failure_lsn=env.token.failure_lsn,
                             policy=policy)
        mgr = begin_restore(ctx, start_thread=False)
        if policy == Policy.ON_DEMAND:
            for seg in range(mgr.bitmap.total):
                mgr.request_segment(seg)
        mgr.drain()
        assert mgr.complete
        repl.close()
        with open(os.path.join(workdir, f"repl_{policy.value}.db"), "rb") as f:
            images[policy] = f.read()
    assert len(set(images.values())) == 1
    oracle = oracle_pages(env.backup, env.wal)
    vol = make_volume(workdir, page_count=env.page_count, page_size=PAGE_SIZE,
                      pages_per_segment=env.pages_per_segment, name="oracle.db",
                      role=DeviceRole.REPLACEMENT)
    for pid in range(env.page_count):
        vol.write_page(oracle[pid])
    vol.close()
    with open(os.path.join(workdir, "oracle.db"), "rb") as f:
        assert f.read() == images[Policy.PREEMPTIVE]


def test_untouched_segment_restores_to_backup_bytes(workdir):
    env = build_env(workdir, updates=0)
    mgr = begin_restore(env.context, start_thread=False)
    mgr.request_segment(3)
    mgr.drain()
    pages, _ = env.repl.read_segment(3)
    backup_pages, _ = env.backup.read_segment(3)
    assert pages == backup_pages


def test_request_restored_segment_immediate(workdir):
    env = build_env(workdir)
    mgr = begin_restore(env.context, start_thread=False)
    mgr.request_segment(2)
    mgr.drain()
    handle = mgr.request_segment(2)
    assert handle.done and handle.done_at is not None
    assert mgr.queue_depth() == 0


def test_demand_served_fifo(workdir):
    env = build_env(workdir, policy=Policy.ON_DEMAND)
    mgr = begin_restore(env.context, start_thread=False)
    order = [5, 1, 7, 3]
    for seg in order:
        mgr.request_segment(seg)
    restored_order = []
    mgr.on_restore = lambda t0, t1, first, count, nb, qd: restored_order.append(first)
    mgr.drain()
    assert restored_order == order
    assert mgr.bitmap.restored_count == len(order)  # on-demand restores only demand
    assert not mgr.has_pending_work()


def test_status_counters(workdir):
    env = build_env(workdir, policy=Policy.SINGLE_PASS)
    mgr = begin_restore(env.context, start_thread=False)
    st = mgr.status()
    assert (st["restored_count"], st["total"]) == (0, 8)
    mgr.drain()
    st = mgr.status()
    assert (st["restored_count"], st["total"]) == (8, 8)
    geo = env.repl.geometry
    assert st["bytes_restored"] == geo.page_count * geo.page_size
    assert st["queue_depth"] == 0


def test_preemptive_sweep_growth_and_completion(workdir):
    env = build_env(workdir, page_count=128, pages_per_segment=8,
                    policy=Policy.PREEMPTIVE, batch_cap=4)
    mgr = begin_restore(env.context, start_thread=False)
    batches = []
    mgr.on_restore = lambda t0, t1, first, count, nb, qd: batches.append(count)
    mgr.drain()  # zero demand: pure sequential sweep
    assert mgr.complete
    assert batches[:3] == [1, 2, 4]  # doubling up to the cap
    assert all(b <= 4 for b in batches)


def test_saturated_queue_keeps_batches_at_one(workdir):
    env = build_env(workdir, policy=Policy.PREEMPTIVE, batch_cap=8)
    mgr = begin_restore(env.context, start_thread=False)
    batches = []
    mgr.on_restore = lambda t0, t1, first, count, nb, qd: batches.append(count)
    for seg in range(mgr.bitmap.total):
        mgr.request_segment(seg)
    mgr.drain()
    assert mgr.complete
    assert all(b == 1 for b in batches)  # demand always preempted the sweep


def test_singlepass_serves_waiters_without_queue(workdir):
    env = build_env(workdir, policy=Policy.SINGLE_PASS, batch_cap=2)
    mgr = begin_restore(env.context, start_thread=False)
    handle = mgr.request_segment(6)
    assert mgr.queue_depth() == 0  # single-pass ignores the queue
    mgr.drain()
    assert handle.done
    assert mgr.complete


def test_preemptive_thread_completes_with_zero_demand(workdir):
    env = build_env(workdir, policy=Policy.PREEMPTIVE)
    mgr = begin_restore(env.context, start_thread=True)
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
    mgr = begin_restore(env.context, start_thread=True)
    real_read = env.repl.read_page
    violations = []

    def checked(page_id, now=0.0):
        if not mgr.is_restored(segment_of(page_id, env.pages_per_segment)):
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
    mgr = begin_restore(env.context, start_thread=True)
    errors = []

    def hammer(seed):
        rng = random.Random(seed)
        try:
            for _ in range(60):
                seg = rng.randrange(mgr.bitmap.total)
                mgr.request_segment(seg).wait(timeout=30.0)
        except StorageError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=hammer, args=(s,)) for s in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    mgr.stop()
    assert errors == []
    assert all(n == 1 for n in mgr.success_count.values())
    assert all(n == 1 for n in mgr.attempt_count.values())


def test_error_reverts_retries_then_fails_fast(workdir):
    env = build_env(workdir, policy=Policy.ON_DEMAND)
    mgr = begin_restore(env.context, start_thread=False)
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
    handle = mgr.request_segment(1)
    with pytest.raises(StorageError):
        mgr.step()
    assert mgr.bitmap.state(1) != SegmentState.RESTORED
    mgr.drain()
    assert handle.done
    assert mgr.attempt_count[1] == 2 and mgr.success_count[1] == 1
    # persistent failure: three attempts, then the waiter sees the error
    failures["n"] = 99
    handle2 = mgr.request_segment(2)
    for _ in range(3):
        with pytest.raises(StorageError):
            mgr.step()
    with pytest.raises(RestoreError):
        handle2.wait(0.1)
    assert failures["n"] == 96
    assert not mgr.has_pending_work()  # gave up; no infinite requeue
    # a fresh request gets a clean retry budget
    env.backup.fetch_page_span = real_fetch
    handle3 = mgr.request_segment(2)
    mgr.drain()
    assert handle3.done


# -- buffer pool integration -----------------------------------------------------------

def test_blocked_fix_resolves_after_restore(workdir):
    env = build_env(workdir, pool_pages=4, policy=Policy.ON_DEMAND)
    mgr = begin_restore(env.context, start_thread=False)
    # pick a page that is not resident so the fix must go through restore
    victim = next(pid for pid in range(env.page_count)
                  if not env.pool.resident(pid))
    out = env.pool.try_fix_page(victim)
    assert isinstance(out, Blocked)
    assert out.segment_id == segment_of(victim, env.pages_per_segment)
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
    mgr = begin_restore(env.context, start_thread=True)
    victim = next(pid for pid in range(env.page_count)
                  if not env.pool.resident(pid))
    handle, _ = env.pool.fix_page(victim, timeout=30.0)
    assert mgr.is_restored(segment_of(victim, env.pages_per_segment))
    want = oracle_pages(env.backup, env.wal)[victim]
    assert handle.page == want
    env.pool.unfix_page(handle)
    mgr.stop()


def test_dirty_pool_page_survives_restore_and_overwrites(workdir):
    env = build_env(workdir, pool_pages=32, updates=100, seed=9, fail=False)
    # dirty one page in the pool, then lose the device before it flushes
    h, _ = env.pool.fix_page(7)
    lsn, _ = env.wal.append(7, 1, OP_SET, 3, value_bytes(999))
    h.page.set(3, value_bytes(999), CAP)
    h.page.page_lsn = lsn
    env.pool.unfix_page(h, mark_dirty=True)
    token = env.pool.fail_device()
    env.archiver.archive_up_to(token.failure_lsn)
    ctx = RestoreContext(backup=env.backup, archive=env.directory,
                         replacement=env.repl, failure_lsn=token.failure_lsn,
                         policy=Policy.PREEMPTIVE, buffer_pool=env.pool)
    mgr = begin_restore(ctx, start_thread=False)
    mgr.drain()
    # the pool copy is untouched and newer-or-equal to the archived image
    assert env.pool._table[7].page.page_lsn == lsn
    restored, _ = env.repl.read_page(7)
    assert restored.page_lsn == lsn  # update was logged, hence archived
    env.pool.flush_page(7)
    flushed, _ = env.repl.read_page(7)
    assert flushed.get(3) == value_bytes(999)


# -- single-page repair ------------------------------------------------------------------

def test_repair_untouched_page_returns_backup_image(workdir):
    env = build_env(workdir, updates=0, fail=False)
    page, _ = single_page_repair(env.wal, env.backup, 5)
    backup_page, _ = env.backup.read_page(5)
    assert page == backup_page


def test_repair_matches_segment_restore(workdir):
    env = build_env(workdir, seed=31)
    mgr = begin_restore(env.context, start_thread=False)
    mgr.drain()
    for pid in random.Random(1).sample(range(env.page_count), 12):
        repaired, _ = single_page_repair(env.wal, env.backup, pid)
        restored, _ = env.repl.read_page(pid)
        assert repaired == restored, f"repair and restore diverge on page {pid}"


def test_repair_fails_on_truncated_chain(workdir):
    env = build_env(workdir, seed=17, fail=False)
    env.wal.flush()
    env.archiver.archive_up_to(env.wal.end_lsn())
    hot = max(range(env.page_count),
              key=lambda p: sum(1 for r in env.wal.scan(0) if r.page_id == p))
    # archive-driven truncation drops the history repair depends on
    env.wal.truncate(env.wal.end_lsn())
    with pytest.raises(BrokenChainError):
        single_page_repair(env.wal, env.backup, hot)
