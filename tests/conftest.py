import os
import random

import pytest

from segstore import failpoints
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


@pytest.fixture(autouse=True)
def _close_opened():
    yield
    while _opened:
        _opened.pop().close()


def make_wal(workdir, name="wal.log", **kw) -> WriteAheadLog:
    return WriteAheadLog(os.path.join(workdir, name), **kw)


def make_volume(workdir, page_count=64, page_size=1024, pages_per_segment=8,
                name="volume.db", role=DeviceRole.DATABASE,
                latency=LatencyModel()) -> Volume:
    geo = Geometry(page_size, page_count, pages_per_segment)
    return Volume.create(os.path.join(workdir, name), geo, role, latency)


def make_replacement(workdir, page_count=64, page_size=1024, pages_per_segment=8,
                     name="repl.db") -> Volume:
    """A blank replacement, as the benchmark engine builds it: its pages
    fail their checksum until restore writes them."""
    geo = Geometry(page_size, page_count, pages_per_segment)
    return Volume.blank(os.path.join(workdir, name), geo)


def value_bytes(seed: int) -> bytes:
    return seed.to_bytes(8, "little").ljust(VALUE_LEN, b"\xab")


def random_history(wal: WriteAheadLog, rng: random.Random, nrecords: int,
                   npages: int, nkeys: int = 16, delete_frac: float = 0.1):
    """Append a random update history; returns the list of (lsn, page, op, key, value)."""
    out = []
    for i in range(nrecords):
        page = rng.randrange(npages)
        key = rng.randrange(nkeys)
        if rng.random() < delete_frac:
            lsn, _ = wal.append(page, txn_id=i, op=OP_DELETE, key=key)
            out.append((lsn, page, OP_DELETE, key, b""))
        else:
            val = value_bytes(i)
            lsn, _ = wal.append(page, txn_id=i, op=OP_SET, key=key, value=val)
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
