#!/usr/bin/env python3
"""Losing the database device mid-run and serving transactions anyway:
segment-granular restore driven by page demand, checked at the end
against brute-force recovery from the backup and the whole log.

Run:  python demos/demo_media_failure_restore.py
"""

import os
import random
import tempfile
import time
from contextlib import ExitStack, closing

from segstore import (ArchiveDirectory, BackupImage, BufferPool, Geometry,
                      LogArchiver, RestoreManager, Volume, WriteAheadLog)
from segstore.bench import oracle_volume_bytes, volume_file_bytes
from segstore.device import DeviceRole
from segstore.pages import page_capacity
from segstore.restore import Policy
from segstore.wal import OP_SET

with ExitStack() as opened:
    workdir = opened.enter_context(tempfile.TemporaryDirectory(prefix="segstore-demo-"))
    geo = Geometry(page_size=1024, page_count=128, pages_per_segment=8)
    volume = opened.enter_context(closing(
        Volume.create(os.path.join(workdir, "volume.db"), geo, DeviceRole.DATABASE)))
    replacement = opened.enter_context(closing(
        Volume.blank(os.path.join(workdir, "replacement.db"), geo)))
    wal = opened.enter_context(closing(WriteAheadLog(os.path.join(workdir, "wal.log"))))
    pool = BufferPool(volume, capacity=16)

    backup, _ = BackupImage.create(workdir, volume, wal)
    opened.enter_context(closing(backup))
    print(f"full backup taken (replay starts at lsn {backup.min_lsn})")

    directory = ArchiveDirectory(os.path.join(workdir, "archive"))
    archiver = LogArchiver(wal, directory, run_size_limit=128)

    cap = page_capacity(geo.page_size)
    rng = random.Random(7)
    for i in range(800):
        pid = rng.randrange(geo.page_count)
        handle, _ = pool.fix_page(pid)
        lsn, _ = wal.append(pid, op=OP_SET, key=i % 8,
                            value=i.to_bytes(16, "little"))
        handle.page.set(i % 8, i.to_bytes(16, "little"), cap)
        handle.page.page_lsn = lsn
        pool.unfix_page(handle, mark_dirty=True)
        archiver.archive_step(64)
    print(f"800 updates committed; archive holds {directory.run_count} runs")

    # --- the failure ---------------------------------------------------------
    pool.fail_device()
    failure_lsn = wal.end_lsn()  # every record below it is durable
    archiver.archive_up_to(failure_lsn)
    print(f"\ndatabase device FAILED at lsn {failure_lsn}; archive caught up")

    # Attaching the manager sends the pool's misses and write-back to its
    # replacement, each page once its segment is restored.
    manager = RestoreManager(backup, directory, replacement, failure_lsn,
                             policy=Policy.PREEMPTIVE, batch_cap=8)
    pool.set_restore_gate(manager)
    manager.start()
    opened.callback(manager.stop)

    def progress():
        return (f"{manager.restored_count}/{manager.segment_count} segments, "
                f"{manager.bytes_restored} bytes, queue depth {manager.queue_depth()}")

    # Transactions keep running: a fix on a lost page blocks only until its
    # segment is back, not until the whole device is.
    hot = 42
    handle, _ = pool.fix_page(hot, timeout=30.0)
    print(f"page {hot} served during restore: page_lsn={handle.page.page_lsn}, "
          f"restored so far: {progress()}")
    pool.unfix_page(handle)

    # Meanwhile the sweep finishes the rest of the device on its own.
    while not manager.complete:
        time.sleep(0.005)
    manager.stop()
    print(f"restore complete: {progress()}")

    # Once the pool's dirty pages are written back, the replacement must
    # hold exactly what replaying the whole log onto the backup produces.
    pool.flush_all()
    same = volume_file_bytes(replacement.device.path) == oracle_volume_bytes(backup, wal)
    print(f"\nrestored device equals brute-force recovery: {same}")
