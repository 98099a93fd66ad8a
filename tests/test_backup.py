import os
import random

import pytest

from segstore import failpoints
from segstore.backup import BackupImage
from segstore.device import LatencyModel
from segstore.errors import CrashInjected, StorageError
from segstore.pages import page_capacity
from segstore.volume import Volume
from segstore.wal import OP_SET

from conftest import closing, make_replacement, make_volume, make_wal, value_bytes


def seed_volume(workdir, rng, page_count=32, updates=200):
    """Volume with some flushed history behind it."""
    vol = make_volume(workdir, page_count=page_count, page_size=1024,
                      pages_per_segment=8)
    wal = make_wal(workdir)
    cap = page_capacity(1024)
    for i in range(updates):
        pid = rng.randrange(page_count)
        page, _ = vol.read_page(pid)
        lsn, _ = wal.append(pid, 1, OP_SET, i % 8, value_bytes(i))
        page.set(i % 8, value_bytes(i), cap)
        page.page_lsn = lsn
        vol.write_page(page)
    return vol, wal


def test_backup_of_fresh_volume(workdir):
    vol = make_volume(workdir, page_count=16, page_size=1024, pages_per_segment=4)
    wal = make_wal(workdir)
    backup, _ = BackupImage.create(workdir, vol, wal)
    assert backup.min_lsn == wal.end_lsn()
    pages, _ = backup.fetch_page_span(0, 16)
    assert all(p.records == {} and p.page_lsn == 0 for p in pages)
    assert os.path.basename(backup.path) == f"backup_{backup.min_lsn}.img"


def test_header_geometry_round_trip(workdir):
    vol = make_volume(workdir, page_count=48, page_size=1024, pages_per_segment=16)
    wal = make_wal(workdir)
    backup, _ = BackupImage.create(workdir, vol, wal)
    reopened = BackupImage(backup.path)
    assert reopened.geometry == vol.geometry
    assert reopened.min_lsn == backup.min_lsn


def test_fetch_is_pure_and_ordered(workdir):
    rng = random.Random(4)
    vol, wal = seed_volume(workdir, rng)
    backup, _ = BackupImage.create(workdir, vol, wal)
    a, _ = backup.fetch_page_span(*backup.geometry.segment_span(2))
    b, _ = backup.fetch_page_span(*backup.geometry.segment_span(2))
    assert a == b
    assert [p.page_id for p in a] == list(range(16, 24))


def test_every_backed_up_page_below_min_lsn(workdir):
    rng = random.Random(5)
    vol, wal = seed_volume(workdir, rng, updates=400)
    backup, _ = BackupImage.create(workdir, vol, wal)
    pages, _ = backup.fetch_page_span(0, vol.geometry.page_count)
    assert all(p.page_lsn < backup.min_lsn for p in pages)


def test_zero_log_identity(workdir):
    """Backup fetched and written straight to a replacement volume with no
    log to replay reproduces the backup exactly."""
    rng = random.Random(6)
    vol, wal = seed_volume(workdir, rng)
    backup, _ = BackupImage.create(workdir, vol, wal)
    repl = make_replacement(workdir, page_count=32, page_size=1024,
                            pages_per_segment=8)
    for seg in range(vol.geometry.segment_count):
        first, end = vol.geometry.segment_span(seg)
        pages, _ = backup.fetch_page_span(first, end)
        repl.write_page_span(first, pages)
    for pid in range(32):
        orig, _ = vol.read_page(pid)
        copy, _ = repl.read_page(pid)
        assert orig == copy


def test_backup_requires_flushed_wal(workdir):
    vol = make_volume(workdir)
    wal = make_wal(workdir, flush_interval=10 ** 6)
    wal.append(0, 1, OP_SET, 0, value_bytes(0))
    with pytest.raises(StorageError):
        BackupImage.create(workdir, vol, wal)


def test_crash_publishes_no_partial_backup(workdir):
    vol = make_volume(workdir)
    wal = make_wal(workdir)
    failpoints.arm("backup:pre_rename")
    with pytest.raises(CrashInjected):
        BackupImage.create(workdir, vol, wal)
    assert not [n for n in os.listdir(workdir) if n.startswith("backup_")]
    backup, _ = BackupImage.create(workdir, vol, wal)  # retry succeeds
    assert [n for n in os.listdir(workdir) if n.startswith("backup_")] == \
        [os.path.basename(backup.path)]


def test_backup_charges_one_read_per_segment(workdir):
    """The copy is charged as segment-wise transfers: one volume-device read
    per segment (the last one short) and one backup-device write of the
    pages.  The volume device's busy time is the set-up carry-over the
    benchmark's warm window starts after."""
    db, bk = LatencyModel(10.0, 0.5), LatencyModel(100.0, 0.25)
    vol = make_volume(workdir, page_count=60, page_size=1024, pages_per_segment=8,
                      latency=db)
    wal = make_wal(workdir)
    backup, t = BackupImage.create(workdir, vol, wal, bk)
    closing(backup)
    geo = vol.geometry
    spans = [geo.segment_span(seg) for seg in range(geo.segment_count)]
    read_us = sum(db.cost_us((end - first) * geo.page_size) for first, end in spans)
    assert vol.device.reads == geo.segment_count == 8
    assert vol.device.bytes_read == geo.page_count * geo.page_size
    assert vol.device._busy_until == read_us
    assert (backup.device.writes, backup.device.bytes_written) == \
        (1, geo.page_count * geo.page_size)
    assert t == backup.device._busy_until == read_us + bk.cost_us(geo.page_count * geo.page_size)


def test_short_volume_file_publishes_no_backup(workdir):
    vol = make_volume(workdir, page_count=32, page_size=1024, pages_per_segment=8)
    wal = make_wal(workdir)
    os.truncate(vol.device.path, os.path.getsize(vol.device.path) - 1024)
    with pytest.raises(StorageError):
        BackupImage.create(workdir, vol, wal)
    assert not [n for n in os.listdir(workdir)
                if n.startswith("backup_") or n.endswith(".tmp")]


def test_image_is_volume_file_plus_trailer(workdir):
    rng = random.Random(7)
    vol, wal = seed_volume(workdir, rng)
    backup, _ = BackupImage.create(workdir, vol, wal)
    with open(vol.device.path, "rb") as f:
        volume_bytes = f.read()
    with open(backup.path, "rb") as f:
        image = f.read()
    assert image[:len(volume_bytes)] == volume_bytes
    assert image[len(volume_bytes):] == b"SGBK1" + backup.min_lsn.to_bytes(8, "little")
    as_volume = Volume.open(backup.path)
    assert as_volume.geometry == backup.geometry
    as_volume.close()


def test_rejects_plain_volume_and_cut_image(workdir):
    vol = make_volume(workdir)
    wal = make_wal(workdir)
    with pytest.raises(StorageError):
        BackupImage(vol.device.path)
    backup, _ = BackupImage.create(workdir, vol, wal)
    with open(backup.path, "rb") as f:
        image = f.read()
    cut = os.path.join(workdir, "cut.img")
    with open(cut, "wb") as f:
        f.write(image[:-1])
    with pytest.raises(StorageError):
        BackupImage(cut)
