import os
import random
import struct
import zlib

import pytest

from segstore import failpoints, runfile
from segstore.device import DeviceRole, LatencyModel
from segstore.pages import VALUE_LEN
from segstore.volume import Geometry, Volume
from segstore.wal import OP_DELETE, OP_SET, WriteAheadLog


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.clear()
    yield
    failpoints.clear()


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


_opened = []


def closing(*objs) -> None:
    """Have the running test's teardown close objs."""
    _opened.extend(objs)


_FD_DIR = "/proc/self/fd"


def _open_fds() -> set[str]:
    """This process's open descriptors, not counting the one that lists
    them; empty where the system has no /proc/self/fd."""
    if not os.path.isdir(_FD_DIR):
        return set()
    return {fd for fd in os.listdir(_FD_DIR) if os.path.exists(os.path.join(_FD_DIR, fd))}


@pytest.fixture(autouse=True)
def _close_opened():
    """Close what the test registered with closing(), then fail the test if
    it left a descriptor open.  Devices open files with os.open, which no
    ResourceWarning covers.  One fixture does both, so the check runs after
    the closes."""
    before = _open_fds()
    yield
    while _opened:
        _opened.pop().close()
    leaked = sorted(os.readlink(os.path.join(_FD_DIR, fd))
                    for fd in _open_fds() - before)
    assert not leaked, f"descriptors left open: {leaked}"


def make_wal(workdir, name="wal.log", **kw) -> WriteAheadLog:
    wal = WriteAheadLog(os.path.join(workdir, name), **kw)
    closing(wal)
    return wal


def make_volume(workdir, page_count=64, page_size=1024, pages_per_segment=8,
                name="volume.db", role=DeviceRole.DATABASE,
                latency=LatencyModel()) -> Volume:
    geo = Geometry(page_size, page_count, pages_per_segment)
    vol = Volume.create(os.path.join(workdir, name), geo, role, latency)
    closing(vol)
    return vol


def make_replacement(workdir, page_count=64, page_size=1024, pages_per_segment=8,
                     name="repl.db") -> Volume:
    """A blank replacement, as the benchmark engine builds it: its pages
    fail their checksum until restore writes them."""
    geo = Geometry(page_size, page_count, pages_per_segment)
    vol = Volume.blank(os.path.join(workdir, name), geo)
    closing(vol)
    return vol


def value_bytes(seed: int) -> bytes:
    return seed.to_bytes(8, "little").ljust(VALUE_LEN, b"\xab")


def old_record_bytes(lsn: int, page_id: int, key: int, value: bytes) -> bytes:
    """A set in the older layout (63 bytes for a 16-byte value), which also
    carried a transaction id and the LSN of the page's previous record."""
    txn_id, prev_page_lsn = 1, 0
    body = struct.pack("<IQQQQBIH", 47 + len(value), lsn, page_id, txn_id,
                       prev_page_lsn, OP_SET, key, len(value)) + value
    return body + struct.pack("<I", zlib.crc32(body))


def run_blocks(run) -> dict[int, set[int]]:
    """Offset -> page ids of each block of a run, decoded from its file
    without its index."""
    with open(run.path, "rb") as f:
        data = f.read()
    return {off: {r.page_id for r in run._decode_blocks(data[off:off + run.block_size])}
            for off in range(runfile._HEADER.size, run._index_offset, run.block_size)}


def random_history(wal: WriteAheadLog, rng: random.Random, nrecords: int,
                   npages: int, nkeys: int = 16, delete_frac: float = 0.1):
    """Append a random update history; returns the list of (lsn, page, op, key, value)."""
    out = []
    for i in range(nrecords):
        page = rng.randrange(npages)
        key = rng.randrange(nkeys)
        if rng.random() < delete_frac:
            lsn, _ = wal.append(page, op=OP_DELETE, key=key)
            out.append((lsn, page, OP_DELETE, key, b""))
        else:
            val = value_bytes(i)
            lsn, _ = wal.append(page, op=OP_SET, key=key, value=val)
            out.append((lsn, page, OP_SET, key, val))
    return out


def fold_records(records):
    """Independent micro-oracle: fold (op, key, value) updates into the
    final records map a page should hold."""
    state = {}
    for rec in records:
        if rec.op == OP_SET:
            state[rec.key] = rec.value
        else:
            state.pop(rec.key, None)
    return state
