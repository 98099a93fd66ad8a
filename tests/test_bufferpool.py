import random
import sys
import threading
import time

import pytest

from segstore.bufferpool import BufferPool
from segstore.errors import ChecksumError, MediaFailureError, StorageError
from segstore.pages import page_capacity
from segstore.wal import OP_SET

from conftest import make_replacement, make_volume, make_wal, value_bytes


def make_pool(workdir, capacity=8, page_count=64, with_replacement=False):
    vol = make_volume(workdir, page_count=page_count, page_size=1024,
                      pages_per_segment=8)
    wal = make_wal(workdir)
    repl = None
    if with_replacement:
        repl = make_replacement(workdir, page_count=page_count, page_size=1024,
                                pages_per_segment=8)
    return BufferPool(vol, wal, capacity, replacement=repl), vol, wal


def test_fix_pin_counts(workdir):
    pool, _, _ = make_pool(workdir)
    h1, _ = pool.fix_page(3)
    assert pool.pin_count(3) == 1
    pool.unfix_page(h1)
    h2, _ = pool.fix_page(3, mode="shared")
    h3, _ = pool.fix_page(3, mode="shared")
    assert h2.frame is h3.frame
    assert pool.pin_count(3) == 2
    pool.unfix_page(h2)
    assert pool.pin_count(3) == 1
    pool.unfix_page(h3)
    assert pool.pin_count(3) == 0


def test_double_unfix_rejected(workdir):
    pool, _, _ = make_pool(workdir)
    h, _ = pool.fix_page(0)
    pool.unfix_page(h)
    with pytest.raises(StorageError):
        pool.unfix_page(h)


def test_dirty_flag_ors(workdir):
    pool, _, _ = make_pool(workdir)
    h, _ = pool.fix_page(1)
    pool.unfix_page(h, mark_dirty=True)
    h, _ = pool.fix_page(1)
    pool.unfix_page(h, mark_dirty=False)
    assert pool._table[1].dirty  # still dirty


def test_mark_dirty_needs_exclusive(workdir):
    pool, _, _ = make_pool(workdir)
    h, _ = pool.fix_page(1, mode="shared")
    with pytest.raises(StorageError):
        pool.unfix_page(h, mark_dirty=True)


def test_flush_enforces_wal_rule(workdir):
    pool, vol, wal = make_pool(workdir)
    wal.flush_interval = 10 ** 6  # keep appends buffered
    wal._since_flush = -10 ** 9
    h, _ = pool.fix_page(2)
    lsn, _ = wal.append(2, 1, OP_SET, 0, value_bytes(0))
    h.page.set(0, value_bytes(0), page_capacity(1024))
    h.page.page_lsn = lsn
    pool.unfix_page(h, mark_dirty=True)
    assert wal.durable_lsn() <= lsn
    pool.flush_page(2)
    assert wal.durable_lsn() > lsn  # log forced ahead of the page write
    back, _ = vol.read_page(2)
    assert back.page_lsn == lsn and back.get(0) == value_bytes(0)


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


def test_pinned_never_evicted_under_stress(workdir):
    pool, _, _ = make_pool(workdir, capacity=6, page_count=64)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(400):
                pid = rng.randrange(64)
                h, _ = pool.fix_page(pid, mode="exclusive")
                if not pool.resident(pid) or h.frame.page.page_id != pid:
                    errors.append(f"pinned page {pid} vanished")
                pool.unfix_page(h, mark_dirty=rng.random() < 0.3)
        except StorageError as exc:
            errors.append(str(exc))

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


@pytest.mark.parametrize("held, wanted", [("shared", "exclusive"),
                                          ("exclusive", "shared")])
def test_latch_conflict_waits_for_unfix(workdir, held, wanted):
    pool, _, _ = make_pool(workdir)
    holder, _ = pool.fix_page(4, mode=held)
    fixed = threading.Event()

    def fix_and_unfix():
        h, _ = pool.fix_page(4, mode=wanted)
        fixed.set()
        pool.unfix_page(h)

    thread = threading.Thread(target=fix_and_unfix)
    thread.start()
    assert not fixed.wait(0.3)  # blocked behind the holder's latch
    pool.unfix_page(holder)
    assert fixed.wait(10.0)
    thread.join(10.0)
    assert not thread.is_alive() and pool.pin_count(4) == 0


def test_latch_stress_keeps_updates_whole(workdir):
    """Writers bump page_lsn twice under the exclusive latch; readers check
    that it is even and holds still under the shared one.  The total proves
    no update was lost."""
    pool, _, _ = make_pool(workdir, capacity=8, page_count=8)
    rounds, writers, readers = 200, 4, 2
    errors = []

    def write(seed):
        rng = random.Random(seed)
        for _ in range(rounds):
            h, _ = pool.fix_page(rng.randrange(4), mode="exclusive")
            lsn = h.page.page_lsn
            h.page.page_lsn = lsn + 1
            time.sleep(0)  # hand the interpreter to another thread mid-update
            h.page.page_lsn = lsn + 2
            pool.unfix_page(h, mark_dirty=True)

    def read(seed):
        rng = random.Random(seed)
        for _ in range(rounds):
            h, _ = pool.fix_page(rng.randrange(4), mode="shared")
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
        h, _ = pool.fix_page(pid, mode="shared")
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
    pool, vol, wal = make_pool(workdir, capacity=4, with_replacement=True)
    h, _ = pool.fix_page(0)
    pool.unfix_page(h)
    assert pool.fail_device() == wal.end_lsn()
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
