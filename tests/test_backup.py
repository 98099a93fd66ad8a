import os
import random

import pytest

from segstore import failpoints
from segstore.backup import BackupImage
from segstore.errors import CrashInjected, StorageError
from segstore.pages import page_capacity
from segstore.volume import Volume
from segstore.wal import OP_SET

from conftest import make_volume, make_wal, value_bytes


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
    pages, _ = backup.read_segment(0)
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
    a, _ = backup.read_segment(2)
    b, _ = backup.read_segment(2)
    assert a == b
    assert [p.page_id for p in a] == list(range(16, 24))


def test_every_backed_up_page_below_min_lsn(workdir):
    rng = random.Random(5)
    vol, wal = seed_volume(workdir, rng, updates=400)
    backup, _ = BackupImage.create(workdir, vol, wal)
    for seg in range(vol.geometry.segment_count):
        pages, _ = backup.read_segment(seg)
        assert all(p.page_lsn < backup.min_lsn for p in pages)


def test_zero_log_identity(workdir):
    """Backup fetched and written straight to a replacement volume with no
    log to replay reproduces the backup exactly."""
    rng = random.Random(6)
    vol, wal = seed_volume(workdir, rng)
    backup, _ = BackupImage.create(workdir, vol, wal)
    repl = make_volume(workdir, page_count=32, page_size=1024,
                       pages_per_segment=8, name="repl.db")
    for seg in range(vol.geometry.segment_count):
        pages, _ = backup.read_segment(seg)
        repl.write_segment(seg, pages)
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
    with pytest.raises(StorageError):
        BackupImage.open_latest(workdir)
    backup, _ = BackupImage.create(workdir, vol, wal)  # retry succeeds
    assert BackupImage.open_latest(workdir).min_lsn == backup.min_lsn


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
