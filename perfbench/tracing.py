"""Per-layer tracing from outside the package.

Tracer.install() replaces the public entry points of each segstore
module - class attributes such as BufferPool.try_fix_page and module
globals such as segstore.restore.replay - with timing wrappers, and
uninstall() puts the originals back.  Nothing under src/ changes.

Each wrapped call is a span.  A layer's self time is its spans' time
minus the time of the wrapped calls made inside them, so the self times
of all entry points plus the engine's own time (outside every wrapped
call) add up to the traced wall time.  Hot per-transaction calls only
feed accumulators; full spans (name, start, end, parent) are kept for
the rare restore, probe, archiver and merge calls and written out at
the end.
"""

import csv
import os
import time

import segstore.archive
import segstore.restore
from segstore.archive import ArchiveDirectory, LogArchiver
from segstore.backup import BackupImage
from segstore.bloom import BloomFilter
from segstore.bufferpool import Blocked, BufferPool
from segstore.device import Device
from segstore.metrics import MetricsReport
from segstore.pages import Page
from segstore.restore import RestoreManager
from segstore.volume import Volume
from segstore.wal import WriteAheadLog
from segstore.workload import WorkerStream

# (owner, attribute, span name).  The owner is a class or a module; a
# module global is patched where its caller looks it up.
ENTRY_POINTS = [
    (WorkerStream, "next_txn", "workload.next_txn"),
    (BufferPool, "try_fix_page", "bufferpool.fix"),
    (BufferPool, "unfix_page", "bufferpool.unfix"),
    (BufferPool, "flush_some", "bufferpool.clean"),
    (BufferPool, "fail_device", "bufferpool.fail_device"),
    (WriteAheadLog, "append", "wal.append"),
    (WriteAheadLog, "flush", "wal.flush"),
    (WriteAheadLog, "read_suffix", "wal.read_suffix"),
    (LogArchiver, "archive_step", "archive.step"),
    (LogArchiver, "archive_up_to", "archive.catchup"),
    (LogArchiver, "run_maintenance", "archive.maintenance"),
    (ArchiveDirectory, "merge_runs", "archive.merge"),
    (ArchiveDirectory, "probe", "archive.probe"),
    (segstore.archive, "write_run", "runfile.write"),
    (segstore.archive.RunReader, "scan_range", "runfile.scan"),
    (segstore.archive.RunReader, "scan_all", "runfile.scan_all"),
    (BloomFilter, "might_contain", "bloom.check"),
    (BackupImage, "fetch_page_span", "backup.fetch"),
    (RestoreManager, "step", "restore.step"),
    (RestoreManager, "drain", "restore.drain"),
    (segstore.restore, "replay", "restore.replay"),
    (Volume, "read_page", "volume.read_page"),
    (Volume, "write_page", "volume.write_page"),
    (Volume, "write_page_span", "volume.write_span"),
    (Page, "to_bytes", "pages.encode"),
    (Page, "from_bytes", "pages.decode"),
    (Device, "read", "device.read"),
    (Device, "write", "device.write"),
    (Device, "charge_read", "device.charge_read"),
    (Device, "charge_write", "device.charge_write"),
    (MetricsReport, "record_txn", "metrics.record"),
    (MetricsReport, "record_page_read", "metrics.record"),
    (MetricsReport, "record_restore", "metrics.record"),
]

# Spans kept in full; the rest only add to their accumulators.
FULL_SPANS = {"restore.step", "archive.probe", "archive.step", "archive.merge",
              "archive.catchup"}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = {}    # span name -> self time
        self.total_s: dict[str, float] = {}   # span name -> inclusive time
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}    # extra per-call tallies
        self.spans: list[tuple] = []          # (id, parent, name, start, end)
        self._stack = [0.0]                   # child time of each open span
        self._open_full = [-1]                # ids of open full spans
        self._saved = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    # -- accounting -----------------------------------------------------------

    def _close(self, name: str, t0: float) -> float:
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        self._stack[-1] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.calls[name] = self.calls.get(name, 0) + 1
        return dur

    def tally(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, fn, name: str):
        stack = self._stack
        close = self._close
        perf = time.perf_counter

        if name in FULL_SPANS:
            spans = self.spans
            open_full = self._open_full

            def full(*args, **kwargs):
                sid = self._next_id
                self._next_id += 1
                parent = open_full[-1]
                open_full.append(sid)
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = close(name, t0)
                    open_full.pop()
                    spans.append((sid, parent, name, t0 - self._t0,
                                  t0 - self._t0 + dur))
            return full

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, t0)
        return timed

    # -- per-entry-point tallies ------------------------------------------------

    def _tallied(self, name: str, timed):
        """Wrap `timed` with the counts a few entry points need; the tally
        runs outside the span it describes."""
        tally = self.tally
        if name == "bufferpool.fix":
            def fix(*args, **kwargs):
                out = timed(*args, **kwargs)
                tally("bufferpool.blocked_fixes" if isinstance(out, Blocked)
                      else "bufferpool.fixes")
                return out
            return fix
        if name == "bufferpool.clean":
            def clean(*args, **kwargs):
                out = timed(*args, **kwargs)
                tally("bufferpool.cleaned_pages", out[0])
                return out
            return clean
        if name == "archive.merge":
            def merge(*args, **kwargs):
                out = timed(*args, **kwargs)
                tally("archive.merge_bytes", os.path.getsize(out[0].path))
                return out
            return merge
        if name == "archive.probe":
            def probe(*args, **kwargs):
                out = timed(*args, **kwargs)
                tally("archive.runs_probed", out.runs_merged)
                tally("archive.runs_skipped", out.runs_skipped)
                tally("restore.records_replayed", len(out.records))
                return out
            return probe
        if name == "runfile.write":
            def write(*args, **kwargs):
                path = timed(*args, **kwargs)
                tally("runfile.bytes_written", os.path.getsize(path))
                return path
            return write
        if name == "runfile.scan":
            def scan(reader, first, last, min_lsn=0, device=None, now=0.0):
                before = device.bytes_read if device is not None else 0
                out = timed(reader, first, last, min_lsn, device, now)
                if device is not None:
                    tally("runfile.bytes_scanned", device.bytes_read - before)
                tally("runfile.bytes_kept", sum(r.encoded_size for r in out[0]))
                return out
            return scan
        if name == "bloom.check":
            def check(*args, **kwargs):
                out = timed(*args, **kwargs)
                if not out:
                    tally("bloom.rejects")
                return out
            return check
        if name == "backup.fetch":
            def fetch(image, first, end, *args, **kwargs):
                tally("backup.pages_fetched", end - first)
                return timed(image, first, end, *args, **kwargs)
            return fetch
        return timed

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in ENTRY_POINTS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                fn = self._tallied(name, self._wrap(raw.__func__, name))
                setattr(owner, attr, classmethod(fn))
            else:
                setattr(owner, attr, self._tallied(name, self._wrap(raw, name)))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- results ------------------------------------------------------------------

    def self_sum(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["span_id", "parent_id", "name", "start_s", "end_s"])
            for sid, parent, name, start, end in sorted(self.spans):
                w.writerow([sid, parent, name, f"{start:.6f}", f"{end:.6f}"])
