#!/usr/bin/env python3
"""The indexed log archive: sorted runs, background merging, and range
probes that feed recovery with a single ordered stream.

Run:  python demos/demo_indexed_archive.py
"""

import os
import random
import tempfile
from contextlib import closing

from segstore import ArchiveDirectory, LogArchiver, WriteAheadLog
from segstore.wal import OP_SET

with (tempfile.TemporaryDirectory(prefix="segstore-demo-") as workdir,
      closing(WriteAheadLog(os.path.join(workdir, "wal.log"))) as wal):
    directory = ArchiveDirectory(os.path.join(workdir, "archive"))
    archiver = LogArchiver(wal, directory, run_size_limit=64, fan_in=4)

    # A randomized update history over 26 pages (think of them as A..Z).
    rng = random.Random(1)
    for i in range(1000):
        wal.append(rng.randrange(26), txn_id=i, op=OP_SET, key=i % 8,
                   value=i.to_bytes(16, "little"))
    archiver.archive_up_to(wal.end_lsn())

    print(f"archived {wal.end_lsn() - 1} log bytes into {directory.run_count} runs:")
    for begin, end in directory.lsn_ranges()[:5]:
        print(f"  run [{begin}, {end})")
    print("  ...")

    # A probe merges only the runs that can matter; blooms prune the rest.
    result = directory.probe(first_page=6, last_page=10, min_lsn=0)
    print(f"\nprobe pages 6..10: {len(result)} records from "
          f"{result.runs_merged} runs ({result.runs_skipped} skipped)")
    print("first five, ordered by (page, lsn):")
    for rec in list(result)[:5]:
        print(f"  page {rec.page_id} lsn {rec.lsn}")

    # Background merging keeps probe fan-in bounded; results never change.
    before = list(directory.probe(6, 10, 0))
    archiver.run_maintenance()
    after = list(directory.probe(6, 10, 0))
    print(f"\nafter maintenance merge: {directory.run_count} runs, "
          f"probe unchanged: {before == after}")
