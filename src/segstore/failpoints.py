"""Named failure-injection points, and the shadow-file publish they guard.

Crash-sensitive code paths call ``hit("some:point")`` at the interesting
spots (between writing a shadow file and renaming it, for instance).  By
default a hit is free.  Tests arm a point to raise, usually CrashInjected,
for a limited number of hits.

``publish`` is the one way a file enters the store: run files, backup
images and copy-mode archive files are all written to a ``.tmp`` shadow
by a callback on the open shadow file, fsynced and renamed into place, so
a reader sees the whole file or none.
"""

import os
import threading

from .errors import CrashInjected

_lock = threading.Lock()
_armed: dict[str, list] = {}  # name -> [exception type, remaining hits]


def arm(name: str, exc=CrashInjected, times: int = 1) -> None:
    with _lock:
        _armed[name] = [exc, times]


def clear() -> None:
    with _lock:
        _armed.clear()


def hit(name: str) -> None:
    with _lock:
        entry = _armed.get(name)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del _armed[name]
        exc = entry[0]
    raise exc(f"failpoint {name}")


def publish(path: str, write, point: str | None = None) -> None:
    """Call write(f) on path + ".tmp" opened for binary writing, fsync it,
    hit the failpoint (if named) and rename the shadow onto path.  On any
    error the shadow file is removed and nothing is published."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        if point is not None:
            hit(point)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
