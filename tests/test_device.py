import os

import pytest

from segstore.bufferpool import BufferPool
from segstore.device import Device, DeviceRole, LatencyModel
from segstore.errors import MediaFailureError, StorageError
from segstore.volume import HEADER_SIZE, Geometry, Volume

from conftest import closing, make_volume, value_bytes


def test_latency_model_cost():
    lat = LatencyModel(fixed_us=100.0, per_byte_us=0.01)
    assert lat.cost_us(0) == 100.0
    assert lat.cost_us(1000) == 110.0


def test_device_read_write_and_timing(workdir):
    dev = Device(DeviceRole.DATABASE, os.path.join(workdir, "d.bin"),
                 LatencyModel(10.0, 0.5), create=True)
    closing(dev)
    t1 = dev.write(0, b"x" * 100, now=0.0)
    assert t1 == 10.0 + 50.0
    data, t2 = dev.read(0, 100, now=0.0)
    assert data == b"x" * 100
    # FCFS: the read queued behind the write even though issued at 0
    assert t2 == t1 + 60.0
    assert dev.reads == 1 and dev.writes == 1
    assert dev.bytes_read == 100 and dev.bytes_written == 100


def test_group_write_joins_only_an_unstarted_group_write(workdir):
    dev = Device(DeviceRole.LOG, os.path.join(workdir, "log.bin"),
                 LatencyModel(10.0, 0.5), create=True)
    assert dev.group_write(0, b"a" * 4, now=0.0) == 12.0    # starts at 0
    assert dev.group_write(4, b"b" * 4, now=1.0) == 24.0    # queues: starts at 12
    assert dev.group_write(8, b"c" * 2, now=11.0) == 24.0   # joins: 12 is after 11
    assert dev.group_write(10, b"d" * 2, now=12.0) == 35.0  # too late: started at 12
    assert (dev.writes, dev.bytes_written) == (3, 12)
    assert dev.pread(0, 12) == b"aaaabbbbccdd"
    # any other transfer ends the group: a plain write queued behind it
    # stands between the group and a later group write
    assert dev.write(12, b"e" * 2, now=13.0) == 46.0
    assert dev.group_write(14, b"f" * 2, now=14.0) == 57.0
    assert dev.writes == 5
    dev.reset_accounting()
    assert dev.group_write(16, b"g" * 2, now=0.0) == 11.0
    dev.close()


def test_volume_writes_never_coalesce(workdir):
    """Page writes to a database volume queue FCFS, each its own write,
    however they overlap."""
    lat = LatencyModel(fixed_us=100.0, per_byte_us=0.0)
    vol = make_volume(workdir, page_count=16, page_size=1024, latency=lat)
    pages = [vol.read_page(pid)[0] for pid in range(3)]
    vol.device.reset_accounting()
    done = [vol.write_page(page, now=now) for page, now in zip(pages, (0.0, 5.0, 10.0))]
    assert done == [100.0, 200.0, 300.0]
    assert vol.device.writes == 3
    vol.close()


def test_only_database_fails(workdir):
    for role in (DeviceRole.LOG, DeviceRole.ARCHIVE, DeviceRole.BACKUP):
        dev = Device(role, os.path.join(workdir, f"{role.value}.bin"), create=True)
        closing(dev)
        with pytest.raises(StorageError):
            dev.fail()


def test_failed_device_rejects_everything(workdir):
    dev = Device(DeviceRole.DATABASE, os.path.join(workdir, "d.bin"), create=True)
    closing(dev)
    dev.write(0, b"abc")
    dev.fail()
    with pytest.raises(StorageError):
        dev.fail()  # already failed
    reads, writes = dev.reads, dev.writes
    with pytest.raises(MediaFailureError):
        dev.read(0, 3)
    with pytest.raises(MediaFailureError):
        dev.write(0, b"xyz")
    with pytest.raises(MediaFailureError):
        dev.charge_read(10)
    # counters frozen: nothing reached the device after the failure
    assert (dev.reads, dev.writes) == (reads, writes)
    assert dev.refused == 3


def test_volume_create_open_round_trip(workdir):
    vol = make_volume(workdir, page_count=16, page_size=1024, pages_per_segment=4)
    page, _ = vol.read_page(5)
    page.set(3, value_bytes(42), capacity=8)
    page.page_lsn = 77
    vol.write_page(page)
    vol.close()

    vol2 = Volume.open(os.path.join(workdir, "volume.db"))
    assert vol2.geometry == Geometry(1024, 16, 4)
    back, _ = vol2.read_page(5)
    assert back == page
    vol2.close()


def test_bad_volume_files_are_refused(workdir):
    """A bad magic, a file shorter than the header and a page too small to
    format each raise StorageError, and none leaves a descriptor open (the
    teardown checks)."""
    vol = make_volume(workdir, page_count=16)
    with open(vol.device.path, "rb") as f:
        header = f.read(HEADER_SIZE)
    bad_magic = os.path.join(workdir, "bad_magic.db")
    with open(bad_magic, "wb") as f:
        f.write(b"XXXXX" + header[5:])
    tiny = os.path.join(workdir, "tiny.db")
    with open(tiny, "wb") as f:
        f.write(header[:2])
    for _ in range(5):
        with pytest.raises(StorageError, match="magic"):
            Volume.open(bad_magic)
    with pytest.raises(StorageError, match="cut short"):
        Volume.open(tiny)
    with pytest.raises(StorageError, match="cut short"):
        Geometry.from_header(header[:-1])
    with pytest.raises(StorageError, match="too small"):
        Volume.create(os.path.join(workdir, "small.db"), Geometry(16, 4, 2))


def test_segment_round_trip_and_order(workdir):
    vol = make_volume(workdir, page_count=16, page_size=1024, pages_per_segment=8)
    first, end = vol.geometry.segment_span(1)
    pages, _ = vol.read_page_span(first, end)
    assert [p.page_id for p in pages] == list(range(8, 16))
    for p in pages:
        p.set(1, value_bytes(p.page_id), capacity=8)
    vol.write_page_span(first, pages)
    again, _ = vol.read_page_span(first, end)
    assert again == pages


def test_segment_read_amortizes_fixed_cost(workdir):
    lat = LatencyModel(fixed_us=100.0, per_byte_us=0.0)
    vol = make_volume(workdir, page_count=16, page_size=1024,
                      pages_per_segment=8, latency=lat)
    _, t_seg = vol.read_page_span(*vol.geometry.segment_span(0), now=0.0)
    vol.device._busy_until = 0.0
    t = 0.0
    for pid in range(8):
        _, t = vol.read_page(pid, now=t)
    assert t_seg == 100.0
    assert t == 800.0


def test_misplaced_span_write_rejected(workdir):
    vol = make_volume(workdir, page_count=16, page_size=1024, pages_per_segment=8)
    pages, _ = vol.read_page_span(0, 8)
    pages[0], pages[1] = pages[1], pages[0]
    with pytest.raises(StorageError):
        vol.write_page_span(0, pages)


def test_misplaced_image_read_rejected(workdir):
    """Page 5's valid image at page 9's offset is not page 9: reading it,
    alone, in a span or through the pool, raises instead of handing back
    page 5 for an update that flush_all or an eviction would misdirect."""
    vol = make_volume(workdir, page_count=16, page_size=1024, pages_per_segment=8)
    page, _ = vol.read_page(5)
    page.set(1, value_bytes(5), capacity=8)
    vol.device.write(vol.geometry.page_offset(9), page.to_bytes(1024))
    with pytest.raises(StorageError, match="misplaced"):
        vol.read_page(9)
    with pytest.raises(StorageError, match="misplaced"):
        vol.read_page_span(8, 16)
    pool = BufferPool(vol, 4)
    with pytest.raises(StorageError, match="misplaced"):
        pool.fix_page(9)
    assert not pool.resident(9)


def test_invalid_page_id(workdir):
    vol = make_volume(workdir, page_count=4)
    with pytest.raises(StorageError):
        vol.read_page(4)
