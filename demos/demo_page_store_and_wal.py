#!/usr/bin/env python3
"""Tour of the storage core: a page volume, a buffer pool on top of it,
and the write-ahead log, whose records carry only what redo reads.

Run:  python demos/demo_page_store_and_wal.py
"""

import os
import tempfile
from contextlib import closing

from segstore import BufferPool, Geometry, Volume, WriteAheadLog
from segstore.device import DeviceRole, LatencyModel
from segstore.pages import page_capacity
from segstore.wal import OP_SET

geo = Geometry(page_size=1024, page_count=64, pages_per_segment=8)
with (tempfile.TemporaryDirectory(prefix="segstore-demo-") as workdir,
      closing(Volume.create(os.path.join(workdir, "volume.db"), geo, DeviceRole.DATABASE,
                            LatencyModel(fixed_us=100, per_byte_us=0.004))) as volume,
      closing(WriteAheadLog(os.path.join(workdir, "wal.log"))) as wal):
    pool = BufferPool(volume, capacity=8)

    print(f"volume: {geo.page_count} pages x {geo.page_size} B, "
          f"{geo.segment_count} segments, pool of {pool.capacity} frames")

    # A few updates through the pool; every update is logged first, and an
    # append returns only once its record is on the log device.
    cap = page_capacity(geo.page_size)
    for i, page_id in enumerate([3, 9, 3, 40, 3, 9]):
        handle, _ = pool.fix_page(page_id)
        lsn, _ = wal.append(page_id, op=OP_SET, key=i, value=i.to_bytes(16, "little"))
        handle.page.set(i, i.to_bytes(16, "little"), cap)
        handle.page.page_lsn = lsn
        pool.unfix_page(handle, mark_dirty=True)
        print(f"update {i}: page {page_id} at lsn {lsn}")

    # An lsn is the record's log offset plus one, so lsns step by record size.
    print("\nthe log, oldest first:")
    for rec in wal.scan(0):
        print(f"  lsn {rec.lsn} page {rec.page_id} key {rec.key} "
              f"({rec.encoded_size} B, next lsn {rec.next_lsn})")

    # Write-ahead: the page goes out only after its log records, and those
    # were durable when their appends returned, so nothing is forced here.
    pool.flush_page(3)
    print(f"\nflushed page 3; log durable through lsn {wal.end_lsn() - 1}")
    page, _ = volume.read_page(3)
    print(f"on-disk page 3: page_lsn={page.page_lsn}, {len(page.records)} records")
