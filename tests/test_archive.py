import collections
import gc
import os
import random
import struct
import tracemalloc
import warnings
import zlib

import pytest

from segstore import failpoints, runfile
from segstore.archive import ArchiveDirectory, LogArchiver
from segstore.device import LatencyModel
from segstore.errors import ArchiveError, CorruptRunError, CrashInjected
from segstore.wal import OP_SET, LogRecord

from conftest import closing, make_wal, old_record_bytes, random_history, value_bytes


def build(workdir, run_size_limit=64, mode="sorted"):
    wal = make_wal(workdir)
    directory = ArchiveDirectory(os.path.join(workdir, "archive"), block_size=512)
    archiver = LogArchiver(wal, directory, run_size_limit=run_size_limit, mode=mode)
    closing(wal)
    return wal, directory, archiver


def probe_oracle(directory, first, last, min_lsn):
    """Linear scan of every run, filter, sort - no index or merge."""
    out = []
    for run in directory.snapshot():
        recs, _ = run.scan_all()
        out.extend(r for r in recs if first <= r.page_id <= last and r.lsn >= min_lsn)
    return sorted(out, key=lambda r: (r.page_id, r.lsn))


def test_step_arithmetic_runs_and_workspace(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=4)
    for i in range(10):
        wal.append(i, OP_SET, 0, value_bytes(i))
    # a step reads only what fills the workspace, and emits that one run
    for runs in (1, 2):
        archiver.archive_step(batch_budget=100)
        assert directory.run_count == runs
        assert archiver.consumed_lsn == archiver.archived_upto
    # the two records past the last run wait in the workspace
    archiver.archive_step(batch_budget=100)
    assert directory.run_count == 2
    assert archiver.consumed_lsn == wal.end_lsn()
    assert len(list(wal.scan(archiver.archived_upto))) == 2
    # empty suffix: nothing changes
    upto_before = archiver.archived_upto
    archiver.archive_step(batch_budget=100)
    assert archiver.archived_upto == upto_before
    assert archiver.consumed_lsn == wal.end_lsn()


def test_emit_sort_order(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=3)
    wal.append(5, OP_SET, 0, value_bytes(1))
    wal.append(3, OP_SET, 0, value_bytes(2))
    wal.append(5, OP_SET, 1, value_bytes(3))
    archiver.archive_step(100)
    recs = list(directory.snapshot()[0].scan_all()[0])
    assert [(r.page_id, r.key) for r in recs] == [(3, 0), (5, 0), (5, 1)]
    # within page 5, LSN order preserved (stable on append order)
    assert recs[1].lsn < recs[2].lsn


def test_multiset_preservation_randomized(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=50)
    rng = random.Random(9)
    random_history(wal, rng, 3000, npages=64)
    while archiver.consumed_lsn < wal.end_lsn():
        archiver.archive_step(rng.randrange(1, 300))
        if rng.random() < 0.3:
            archiver.run_maintenance()
    archiver.archive_up_to(wal.end_lsn())
    archived = []
    for run in directory.snapshot():
        archived.extend(run.scan_all()[0])
    wal_records = list(wal.scan(0))
    assert collections.Counter(r.lsn for r in archived) == \
        collections.Counter(r.lsn for r in wal_records)
    assert sorted(archived, key=lambda r: r.lsn) == wal_records
    # ranges partition [0, archived_upto)
    ranges = directory.lsn_ranges()
    assert ranges[0][0] == 0
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c
    assert ranges[-1][1] == archiver.archived_upto == wal.end_lsn()


def test_archive_up_to_forces_small_run(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=100)
    for i in range(3):
        wal.append(i, OP_SET, 0, value_bytes(i))
    target = wal.end_lsn()
    archiver.archive_up_to(target)
    assert archiver.archived_upto >= target
    assert directory.run_count == 1
    assert directory.snapshot()[0].record_count == 3
    # no-op when already archived
    runs_before = directory.run_count
    archiver.archive_up_to(target)
    assert directory.run_count == runs_before


def test_archive_up_to_requires_durable_wal(workdir):
    """The archiver cannot archive past the log end, which is durable."""
    wal, directory, archiver = build(workdir)
    wal.append(0, OP_SET, 0, value_bytes(0))
    with pytest.raises(ArchiveError):
        archiver.archive_up_to(wal.end_lsn() + 1)
    archiver.archive_up_to(wal.end_lsn())
    assert archiver.archived_upto == wal.end_lsn() and directory.run_count == 1


def test_probe_equals_oracle_across_merges(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=40)
    rng = random.Random(21)
    random_history(wal, rng, 2500, npages=80)
    archiver.archive_up_to(wal.end_lsn())
    max_lsn = wal.end_lsn()
    for round_no in range(6):
        for _ in range(60):
            a = rng.randrange(80)
            b = min(79, a + rng.randrange(10))
            min_lsn = rng.choice([0, 1, rng.randrange(max_lsn), max_lsn])
            got = list(directory.probe(a, b, min_lsn))
            assert got == probe_oracle(directory, a, b, min_lsn)
        if directory.run_count >= 3:
            inputs = list(directory.snapshot()[:3])
            directory.merge_runs(inputs)
        else:
            break


def test_probe_empty_range_and_index_skip(workdir):
    """A run whose block index has no block that meets the page range is
    skipped, and nothing is read from the archive device."""
    wal, directory, archiver = build(workdir, run_size_limit=16)
    for i in range(64):
        wal.append(10 + i % 4, OP_SET, 0, value_bytes(i))  # only pages 10..13
    archiver.archive_up_to(wal.end_lsn())
    for first, last in ((50, 60), (0, 9), (14, 14)):
        result = directory.probe(first, last, 0)
        assert list(result) == []
        assert result.runs_merged == 0
        assert result.runs_skipped == directory.run_count
    assert directory.device.bytes_read == 0
    assert directory.probe(9, 10, 0).runs_merged == directory.run_count


def test_probe_min_lsn_skips_old_runs(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=16)
    for i in range(64):
        wal.append(0, OP_SET, i % 8, value_bytes(i))
    archiver.archive_up_to(wal.end_lsn())
    ranges = directory.lsn_ranges()
    min_lsn = ranges[2][0]  # everything before run 2 is stale
    result = directory.probe(0, 0, min_lsn)
    assert result.runs_skipped >= 2
    assert all(r.lsn >= min_lsn for r in result)


def test_merge_identity_and_union(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(2), 40, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    runs = directory.snapshot()
    r0_content = list(runs[0].scan_all()[0])
    merged, _ = directory.merge_runs([runs[0]])
    assert list(merged.scan_all()[0]) == r0_content  # merge of one run: identity
    runs = directory.snapshot()
    a, b = runs[0], runs[1]
    merged2, _ = directory.merge_runs([a, b])
    assert (merged2.begin_lsn, merged2.end_lsn) == (a.begin_lsn, b.end_lsn)
    assert directory.archived_upto == archiver.archived_upto


def test_merge_rejects_non_adjacent(workdir):
    """Inputs that skip a run, or come out of manifest order, are refused
    before anything is written: no output file, manifest unchanged."""
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(2), 40, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    runs = directory.snapshot()
    before = archive_state(directory)
    for inputs in ([runs[0], runs[2]], (runs[1], runs[0])):
        with pytest.raises(ArchiveError, match="not adjacent"):
            directory.merge_runs(inputs)
        assert archive_state(directory) == before


def test_merge_of_the_snapshot_tuple(workdir):
    """merge_runs takes the snapshot itself, a tuple, as its inputs."""
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(3), 40, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    oracle = probe_oracle(directory, 0, 9, 0)
    runs = directory.snapshot()
    assert isinstance(runs, tuple) and len(runs) >= 2
    output, _ = directory.merge_runs(runs)
    assert directory.snapshot() == (output,)
    assert sorted(os.listdir(directory.dir_path)) == [output.name]
    assert probe_oracle(directory, 0, 9, 0) == oracle


def test_maintenance_merges_every_run_into_one(workdir):
    """run_maintenance merges the whole archive into one run covering
    [0, archived_upto), keeps every probe's answer, and returns when the
    archive device is done; below two runs it does nothing at all."""
    wal = make_wal(workdir)
    closing(wal)
    latency = LatencyModel(fixed_us=100.0, per_byte_us=0.01)
    directory = ArchiveDirectory(os.path.join(workdir, "archive"), latency, block_size=512)
    archiver = LogArchiver(wal, directory, run_size_limit=8)
    device = directory.device
    charges = lambda: (device.reads, device.writes, device.bytes_read,
                       device.bytes_written, device._busy_until)
    assert archiver.run_maintenance(5.0) == 5.0  # no run
    random_history(wal, random.Random(5), 8, npages=20)
    archiver.archive_up_to(wal.end_lsn())
    assert directory.run_count == 1
    files, before = os.listdir(directory.dir_path), charges()
    assert archiver.run_maintenance(5.0) == 5.0  # one run
    assert os.listdir(directory.dir_path) == files and charges() == before

    rng = random.Random(6)
    random_history(wal, rng, 600, npages=20)
    archiver.archive_up_to(wal.end_lsn())
    assert directory.run_count > 2
    probes = []
    for _ in range(30):
        a = rng.randrange(20)
        probes.append((a, min(19, a + rng.randrange(6)),
                       rng.choice([0, rng.randrange(wal.end_lsn())])))
    want = [probe_oracle(directory, *p) for p in probes]
    assert [list(directory.probe(*p)) for p in probes] == want
    now = device._busy_until + 1.0
    done = archiver.run_maintenance(now)
    (merged,) = directory.snapshot()
    assert done == device._busy_until
    assert done >= now + latency.cost_us(os.path.getsize(merged.path))
    assert directory.lsn_ranges() == [(0, archiver.archived_upto)]
    assert os.listdir(directory.dir_path) == [merged.name]
    assert [list(directory.probe(*p)) for p in probes] == want
    assert [probe_oracle(directory, *p) for p in probes] == want


def test_sixty_four_way_merge_probe(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=8)
    rng = random.Random(7)
    random_history(wal, rng, 8 * 64, npages=16)
    archiver.archive_up_to(wal.end_lsn())
    assert directory.run_count == 64
    result = directory.probe(0, 15, 0)
    assert result.runs_merged == 64
    assert list(result) == probe_oracle(directory, 0, 15, 0)


def test_crash_between_write_and_publish(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=4)
    for i in range(4):
        wal.append(i, OP_SET, 0, value_bytes(i))
    failpoints.arm("run:pre_rename")
    with pytest.raises(CrashInjected):
        archiver.archive_step(100)
    assert directory.run_count == 0
    # workspace retained: the retry emits the same run
    archiver.archive_step(100)
    assert directory.run_count == 1
    assert directory.snapshot()[0].record_count == 4


def test_reload_ignores_tmp_and_resolves_merge_crash(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(8), 60, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    arch_path = directory.dir_path
    oracle_before = probe_oracle(directory, 0, 9, 0)
    # crash after the merged run was renamed in but before inputs vanish
    failpoints.arm("merge:pre_unlink")
    inputs = list(directory.snapshot()[:3])
    with pytest.raises(CrashInjected):
        directory.merge_runs(inputs)
    with open(os.path.join(arch_path, "archive_9999_10000.run.tmp"), "wb") as f:
        f.write(b"junk")

    reloaded = ArchiveDirectory.load(arch_path, block_size=512)
    ranges = reloaded.lsn_ranges()
    assert ranges[0][0] == 0
    for (a, b), (c, d) in zip(ranges, ranges[1:]):
        assert b == c
    assert probe_oracle(reloaded, 0, 9, 0) == oracle_before
    # the subsumed input files were cleaned up on load
    names = set(os.listdir(arch_path))
    assert f"archive_{inputs[0].begin_lsn}_{inputs[0].end_lsn}.run" not in names


def test_reload_after_merge_pre_swap_crash(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(12), 60, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    oracle_before = probe_oracle(directory, 0, 9, 0)
    failpoints.arm("merge:pre_swap")
    inputs = list(directory.snapshot()[:2])
    with pytest.raises(CrashInjected):
        directory.merge_runs(inputs)
    reloaded = ArchiveDirectory.load(directory.dir_path, block_size=512)
    assert probe_oracle(reloaded, 0, 9, 0) == oracle_before


def test_failed_reload_closes_the_runs_it_opened(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(4), 40, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    first, second = directory.snapshot()[:2]
    os.unlink(second.path)  # a gap after the first run
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ArchiveError):
            ArchiveDirectory.load(directory.dir_path, block_size=512)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)
                and first.path in str(w.message)]


class _OldRecord(collections.namedtuple("_OldRecord", "lsn page_id key value")):
    def encode(self):
        return old_record_bytes(self.lsn, self.page_id, self.key, self.value)


def _sgar2_run(dir_path, recs, block_size):
    """Write recs as a run in the SGAR2 layout: an index of (first page id,
    offset) per block, a bloom filter behind it (u32 bit count and bits,
    here 10 a record, all clear), and a footer holding both offsets before
    the crc."""
    blocks, index = [], []
    bloom = struct.pack("<I", 10 * len(recs)) + bytes((10 * len(recs) + 7) // 8)
    for rec in recs:
        encoded = rec.encode()
        if not blocks or len(blocks[-1]) + len(encoded) > block_size:
            index.append((rec.page_id, runfile._HEADER.size + len(blocks) * block_size))
            blocks.append(bytearray())
        blocks[-1] += encoded
    index_offset = runfile._HEADER.size + len(blocks) * block_size
    body = (runfile._HEADER.pack(b"SGAR2", 0, recs[-1].next_lsn, len(recs), block_size)
            + b"".join(block.ljust(block_size, b"\0") for block in blocks)
            + b"".join(struct.pack("<QQ", *entry) for entry in index) + bloom
            + struct.pack("<QQ", index_offset, index_offset + 16 * len(index)))
    path = os.path.join(dir_path, runfile.run_name(0, recs[-1].next_lsn))
    with open(path, "wb") as f:
        f.write(body + struct.pack("<I", zlib.crc32(body)))
    return path


@pytest.mark.parametrize("magic, blind_error", [(b"SGAR1", "bad length"),
                                                (b"SGAR2", "index length")],
                         ids=["SGAR1", "SGAR2"])
def test_run_in_an_older_layout_is_refused(workdir, monkeypatch, magic, blind_error):
    """A run under an older magic fails to load.  Were the magic ignored,
    an SGAR1 run's 63-byte records would still fail to decode, and an
    SGAR2 run's bloom section would not pass for an index of its blocks."""
    dir_path = os.path.join(workdir, "archive")
    os.makedirs(dir_path)
    if magic == b"SGAR1":
        recs = [_OldRecord(1 + 63 * i, i // 2, i, value_bytes(i)) for i in range(6)]
        monkeypatch.setattr(runfile, "MAGIC", magic)
        path = runfile.write_run(dir_path, 0, 1 + 63 * len(recs), recs, len(recs), block_size=512)
        monkeypatch.undo()
    else:
        wal = make_wal(workdir)
        random_history(wal, random.Random(13), 40, npages=10)
        recs = sorted(wal.scan(), key=lambda r: (r.page_id, r.lsn))
        path = _sgar2_run(dir_path, recs, block_size=512)
    with pytest.raises(CorruptRunError, match="bad magic"):
        ArchiveDirectory.load(dir_path, block_size=512)
    monkeypatch.setattr(runfile, "MAGIC", magic)  # accept the old header
    with pytest.raises(CorruptRunError, match=blind_error):
        list(runfile.RunReader(path).scan_all()[0])


def test_failed_merge_swap_closes_its_output(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(6), 40, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    failpoints.arm("merge:pre_swap")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CrashInjected):
            directory.merge_runs(list(directory.snapshot()[:2]))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_runs_hold_no_files(workdir):
    """Writing, merging, reloading and probing an archive of many runs
    leaves no file open."""
    wal, directory, archiver = build(workdir, run_size_limit=10)
    fds = len(os.listdir("/proc/self/fd"))
    random_history(wal, random.Random(10), 120, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    assert directory.run_count >= 8
    directory.merge_runs(list(directory.snapshot()[:4]))
    reloaded = ArchiveDirectory.load(directory.dir_path, block_size=512)
    assert list(reloaded.probe(0, 9, 0)) == probe_oracle(reloaded, 0, 9, 0)
    records, _ = reloaded.snapshot()[0].scan_all()
    next(records)
    del records  # a scan dropped half read
    assert len(os.listdir("/proc/self/fd")) == fds


def archive_state(directory):
    """The manifest and every file of the archive directory, bytes included."""
    files = {}
    for name in os.listdir(directory.dir_path):
        with open(os.path.join(directory.dir_path, name), "rb") as f:
            files[name] = f.read()
    return directory.lsn_ranges(), files


def test_merge_of_stale_inputs_is_a_corrupt_run(workdir):
    """Runs that an earlier merge unlinked cannot be read: merging them
    again raises CorruptRunError and publishes nothing."""
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(11), 60, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    stale = list(directory.snapshot()[:2])
    directory.merge_runs(list(directory.snapshot()[:4]))
    before = archive_state(directory)
    with pytest.raises(CorruptRunError) as err:
        directory.merge_runs(stale)
    assert err.value.run_name == stale[0].name
    assert archive_state(directory) == before  # no run published, no .tmp left


def test_merge_stops_at_a_block_corrupted_after_open(workdir, monkeypatch):
    """An input block that goes bad after its run was opened fails the
    merge partway through writing its output; nothing is published."""
    wal, directory, archiver = build(workdir, run_size_limit=100)
    random_history(wal, random.Random(12), 400, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    inputs = list(directory.snapshot())
    last = inputs[-1]
    with open(last.path, "r+b") as f:  # a value byte of the last block's first record
        f.seek(last._index_offset - last.block_size + 40)
        f.write(b"\x00" if f.read(1) != b"\x00" else b"\x01")
    before = archive_state(directory)
    written = []
    real_publish = failpoints.publish

    def publish(path, write, point=None):
        def spy(f):
            try:
                write(f)
            finally:
                written.append(f.tell())
        real_publish(path, spy, point)

    monkeypatch.setattr(failpoints, "publish", publish)
    with pytest.raises(CorruptRunError) as err:
        directory.merge_runs(inputs)
    assert err.value.run_name == last.name
    assert written[0] > 4 * directory.block_size  # blocks went out before the fault
    assert archive_state(directory) == before


def test_merge_memory_stays_below_its_output(workdir):
    """A merge streams: its peak allocation is a chunk per input and one
    output block, well under the run it writes."""
    dir_path = os.path.join(workdir, "archive")
    os.makedirs(dir_path)
    rng = random.Random(13)
    begin, lsn = 0, 1
    for _ in range(4):
        recs = []
        for i in range(16384):
            recs.append(LogRecord(lsn, rng.randrange(1024), OP_SET, i % 16, value_bytes(i)))
            lsn = recs[-1].next_lsn
        recs.sort(key=lambda r: (r.page_id, r.lsn))
        runfile.write_run(dir_path, begin, lsn, recs, len(recs))
        begin = lsn
    del recs
    directory = ArchiveDirectory.load(dir_path)
    tracemalloc.start()
    try:
        output, _ = directory.merge_runs(list(directory.snapshot()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert output.record_count == 4 * 16384
    assert peak < os.path.getsize(output.path)


def test_archiver_resumes_on_reloaded_archive(workdir):
    """A new archiver over a reloaded directory continues at its last run,
    re-reading the records the old archiver held in its workspace."""
    wal, directory, archiver = build(workdir, run_size_limit=40)
    rng = random.Random(17)
    random_history(wal, rng, 300, npages=30)
    archiver.archive_step(1000)
    assert 0 < archiver.archived_upto < wal.end_lsn()
    reloaded = ArchiveDirectory.load(directory.dir_path, block_size=512)
    resumed = LogArchiver(wal, reloaded, run_size_limit=40)
    assert resumed.archived_upto == resumed.consumed_lsn == archiver.archived_upto
    random_history(wal, rng, 300, npages=30)
    resumed.archive_up_to(wal.end_lsn())
    resumed.run_maintenance()
    ranges = reloaded.lsn_ranges()
    assert ranges[0][0] == 0 and ranges[-1][1] == resumed.archived_upto == wal.end_lsn()
    assert all(b == c for (_, b), (c, _) in zip(ranges, ranges[1:]))
    archived = [r for run in reloaded.snapshot() for r in run.scan_all()[0]]
    assert sorted(archived, key=lambda r: r.lsn) == list(wal.scan(0))
    for _ in range(40):
        a = rng.randrange(30)
        b = min(29, a + rng.randrange(6))
        min_lsn = rng.choice([0, rng.randrange(wal.end_lsn())])
        assert list(reloaded.probe(a, b, min_lsn)) == probe_oracle(reloaded, a, b, min_lsn)


def test_copy_mode_tracks_progress_without_runs(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=8, mode="copy")
    random_history(wal, random.Random(3), 40, npages=6)
    archiver.archive_up_to(wal.end_lsn())
    assert archiver.archived_upto >= wal.end_lsn()
    assert directory.run_count == 0  # .copy files never join the manifest
    assert any(n.endswith(".copy") for n in os.listdir(directory.dir_path))
    assert ArchiveDirectory.load(directory.dir_path).run_count == 0


def test_copy_mode_failed_write_leaves_no_shadow(workdir, monkeypatch):
    wal, directory, archiver = build(workdir, run_size_limit=8, mode="copy")
    random_history(wal, random.Random(3), 8, npages=6)

    def broken_fsync(fd):
        raise OSError("fsync failed")

    monkeypatch.setattr(os, "fsync", broken_fsync)
    with pytest.raises(OSError):
        archiver.archive_step(8)
    assert os.listdir(directory.dir_path) == []
    assert archiver.consumed_lsn == wal.end_lsn() and archiver.archived_upto == 0
    monkeypatch.undo()
    archiver.archive_step(8)
    assert archiver.archived_upto == wal.end_lsn()
    assert [n for n in os.listdir(directory.dir_path) if n.endswith(".copy")]
