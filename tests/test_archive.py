import collections
import gc
import os
import random
import warnings

import pytest

from segstore import failpoints
from segstore.archive import ArchiveDirectory, LogArchiver
from segstore.errors import ArchiveError, CrashInjected
from segstore.wal import OP_SET

from conftest import closing, make_wal, random_history, value_bytes


def build(workdir, run_size_limit=64, fan_in=8, mode="sorted", flush_interval=0):
    wal = make_wal(workdir, flush_interval=flush_interval)
    directory = ArchiveDirectory(os.path.join(workdir, "archive"), block_size=512)
    archiver = LogArchiver(wal, directory, run_size_limit=run_size_limit,
                           fan_in=fan_in, mode=mode)
    closing(wal)
    return wal, directory, archiver


def probe_oracle(directory, first, last, min_lsn):
    """Linear scan of every run, filter, sort - no index, bloom, or merge."""
    out = []
    for run in directory.snapshot():
        recs, _ = run.scan_all()
        out.extend(r for r in recs if first <= r.page_id <= last and r.lsn >= min_lsn)
    return sorted(out, key=lambda r: (r.page_id, r.lsn))


def test_step_arithmetic_runs_and_workspace(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=4)
    for i in range(10):
        wal.append(i, 1, OP_SET, 0, value_bytes(i))
    archiver.archive_step(batch_budget=100)
    assert directory.run_count == 2
    # the two records past the last run wait in the workspace
    assert archiver.consumed_lsn == wal.end_lsn()
    assert len(list(wal.scan(archiver.archived_upto))) == 2
    # empty suffix: nothing changes
    upto_before = archiver.archived_upto
    archiver.archive_step(batch_budget=100)
    assert archiver.archived_upto == upto_before
    assert archiver.consumed_lsn == wal.end_lsn()


def test_emit_sort_order(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=3)
    wal.append(5, 1, OP_SET, 0, value_bytes(1))
    wal.append(3, 1, OP_SET, 0, value_bytes(2))
    wal.append(5, 1, OP_SET, 1, value_bytes(3))
    archiver.archive_step(100)
    recs, _ = directory.snapshot()[0].scan_all()
    assert [(r.page_id, r.key) for r in recs] == [(3, 0), (5, 0), (5, 1)]
    # within page 5, LSN order preserved (stable on append order)
    assert recs[1].lsn < recs[2].lsn


def test_multiset_preservation_randomized(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=50, fan_in=4)
    rng = random.Random(9)
    random_history(wal, rng, 3000, npages=64)
    while archiver.consumed_lsn < wal.end_lsn():
        archiver.archive_step(rng.randrange(1, 300))
        if rng.random() < 0.3 and archiver.maintenance_due():
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
        wal.append(i, 1, OP_SET, 0, value_bytes(i))
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
    wal, directory, archiver = build(workdir, flush_interval=10 ** 6)
    wal.append(0, 1, OP_SET, 0, value_bytes(0))
    with pytest.raises(ArchiveError):
        archiver.archive_up_to(wal.end_lsn())
    wal.flush()
    archiver.archive_up_to(wal.end_lsn())


def test_probe_equals_oracle_across_merges(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=40, fan_in=3)
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
            directory.merge_runs(inputs, fan_in=3)
        else:
            break


def test_probe_empty_range_and_bloom_skip(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=16)
    for i in range(64):
        wal.append(i % 4, 1, OP_SET, 0, value_bytes(i))  # only pages 0..3
    archiver.archive_up_to(wal.end_lsn())
    result = directory.probe(50, 60, 0)
    assert list(result) == []
    assert result.runs_merged == 0
    assert result.runs_skipped == directory.run_count


def test_probe_min_lsn_skips_old_runs(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=16)
    for i in range(64):
        wal.append(0, 1, OP_SET, i % 8, value_bytes(i))
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
    r0_content = runs[0].scan_all()[0]
    merged, _ = directory.merge_runs([runs[0]], fan_in=8)
    assert merged.scan_all()[0] == r0_content  # merge of one run: identity
    runs = directory.snapshot()
    a, b = runs[0], runs[1]
    merged2, _ = directory.merge_runs([a, b], fan_in=8)
    assert (merged2.begin_lsn, merged2.end_lsn) == (a.begin_lsn, b.end_lsn)
    assert directory.archived_upto == archiver.archived_upto


def test_merge_rejects_non_adjacent(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(2), 40, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    runs = directory.snapshot()
    with pytest.raises(ArchiveError):
        directory.merge_runs([runs[0], runs[2]], fan_in=8)
    with pytest.raises(ArchiveError):
        directory.merge_runs(list(runs[:4]), fan_in=2)


def test_maintenance_policy_bounds_run_count(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=8, fan_in=3)
    rng = random.Random(5)
    random_history(wal, rng, 600, npages=20)
    while archiver.consumed_lsn < wal.end_lsn():
        archiver.archive_step(rng.randrange(1, 64))
        archiver.run_maintenance()
    assert directory.run_count <= 2 * 3 + 1
    assert probe_oracle(directory, 0, 19, 0) == list(directory.probe(0, 19, 0))


def test_sixty_four_way_merge_probe(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=8, fan_in=100)
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
        wal.append(i, 1, OP_SET, 0, value_bytes(i))
    failpoints.arm("run:pre_rename")
    with pytest.raises(CrashInjected):
        archiver.archive_step(100)
    assert directory.run_count == 0
    # workspace retained: the retry emits the same run
    archiver.archive_step(100)
    assert directory.run_count == 1
    assert directory.snapshot()[0].record_count == 4


def test_reload_ignores_tmp_and_resolves_merge_crash(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=10, fan_in=4)
    random_history(wal, random.Random(8), 60, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    arch_path = directory.dir_path
    oracle_before = probe_oracle(directory, 0, 9, 0)
    # crash after the merged run was renamed in but before inputs vanish
    failpoints.arm("merge:pre_unlink")
    inputs = list(directory.snapshot()[:3])
    with pytest.raises(CrashInjected):
        directory.merge_runs(inputs, fan_in=4)
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
    wal, directory, archiver = build(workdir, run_size_limit=10, fan_in=4)
    random_history(wal, random.Random(12), 60, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    oracle_before = probe_oracle(directory, 0, 9, 0)
    failpoints.arm("merge:pre_swap")
    inputs = list(directory.snapshot()[:2])
    with pytest.raises(CrashInjected):
        directory.merge_runs(inputs, fan_in=4)
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


def test_failed_merge_swap_closes_its_output(workdir):
    wal, directory, archiver = build(workdir, run_size_limit=10)
    random_history(wal, random.Random(6), 40, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    failpoints.arm("merge:pre_swap")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CrashInjected):
            directory.merge_runs(list(directory.snapshot()[:2]), fan_in=4)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_runs_hold_no_files(workdir):
    """Writing, merging, reloading and probing an archive of many runs
    leaves no file open."""
    wal, directory, archiver = build(workdir, run_size_limit=10, fan_in=4)
    fds = len(os.listdir("/proc/self/fd"))
    random_history(wal, random.Random(10), 120, npages=10)
    archiver.archive_up_to(wal.end_lsn())
    assert directory.run_count >= 8
    directory.merge_runs(list(directory.snapshot()[:4]), fan_in=4)
    reloaded = ArchiveDirectory.load(directory.dir_path, block_size=512)
    assert list(reloaded.probe(0, 9, 0)) == probe_oracle(reloaded, 0, 9, 0)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_archiver_resumes_on_reloaded_archive(workdir):
    """A new archiver over a reloaded directory continues at its last run,
    re-reading the records the old archiver held in its workspace."""
    wal, directory, archiver = build(workdir, run_size_limit=40, fan_in=3)
    rng = random.Random(17)
    random_history(wal, rng, 300, npages=30)
    archiver.archive_step(1000)
    assert 0 < archiver.archived_upto < wal.end_lsn()
    reloaded = ArchiveDirectory.load(directory.dir_path, block_size=512)
    resumed = LogArchiver(wal, reloaded, run_size_limit=40, fan_in=3)
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
