"""Online log archiving into an indexed, partially sorted archive.

The archiver drains the write-ahead log into an in-memory workspace and,
every run_size_limit records, emits one sorted indexed run.  Runs cover
contiguous, disjoint LSN intervals whose union is exactly the archived
prefix of the log, so an archiver given a reloaded directory resumes
where its last run ends, and garbage collection is a range check.  The
archive's one merge is run_maintenance, which merges every run into one
when restore begins.  A merge streams its inputs' chunked scans through
one k-way merge into the run writer, holding a read chunk per input,
never a run.

probe(first_page, last_page, min_lsn, end_lsn) k-way-merges every run that
holds matching records - runs wholly outside [min_lsn, end_lsn), or whose
block index has no block that meets the page range, are skipped - and
yields a single stream ordered by (page id, LSN), ready to replay onto
backed-up pages.

The directory listing is the manifest: whatever parses as
archive_<begin>_<end>.run and passes its checksum is real; .tmp files
are crash leftovers.  A crash between a merge's output rename and the
input unlinks can leave subsumed runs behind; load() resolves overlaps
in favor of the covering run and removes the rest.
"""

import heapq
import os
import threading

from . import failpoints
from .device import Device, DeviceRole, LatencyModel
from .errors import ArchiveError, CorruptRunError
from .runfile import DEFAULT_BLOCK_SIZE, RunReader, parse_run_name, write_run
from .wal import NULL_LSN, LogRecord, WriteAheadLog

_SORT_KEY = lambda r: (r.page_id, r.lsn)

ARCHIVE_MODES = ("sorted", "copy")


class ProbeResult:
    """Materialized merged stream for one probe, ordered by (page_id, lsn)."""

    def __init__(self, records: list[LogRecord], done_at: float,
                 runs_merged: int, runs_skipped: int):
        self.records = records
        self.done_at = done_at
        self.runs_merged = runs_merged
        self.runs_skipped = runs_skipped

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


class ArchiveDirectory:
    """The one owner of the archive's runs: it writes each run file,
    keeps an in-memory snapshot of the listing, and reads runs on demand."""

    def __init__(self, dir_path: str, latency: LatencyModel = LatencyModel(),
                 block_size: int = DEFAULT_BLOCK_SIZE):
        self.dir_path = dir_path
        os.makedirs(dir_path, exist_ok=True)
        self.device = Device(DeviceRole.ARCHIVE, None, latency)
        self.block_size = block_size
        self._runs: list[RunReader] = []
        self._lock = threading.Lock()

    @classmethod
    def load(cls, dir_path: str, latency: LatencyModel = LatencyModel(),
             block_size: int = DEFAULT_BLOCK_SIZE) -> "ArchiveDirectory":
        """Reopen an archive directory, verifying checksums and resolving
        crash leftovers (tmp files, runs subsumed by a finished merge)."""
        directory = cls(dir_path, latency, block_size)
        candidates = []
        for name in sorted(os.listdir(dir_path)):
            span = parse_run_name(name)
            if span is None:
                continue
            candidates.append((span[0], -span[1], os.path.join(dir_path, name)))
        candidates.sort()
        covered_upto = 0
        for begin, neg_end, path in candidates:
            end = -neg_end
            if end <= covered_upto:
                # subsumed by an already accepted covering run
                os.unlink(path)
                continue
            if begin > covered_upto:
                raise ArchiveError(f"archive gap before {os.path.basename(path)}")
            if begin < covered_upto:
                raise ArchiveError(f"archive overlap at {os.path.basename(path)}")
            directory._runs.append(RunReader(path))
            covered_upto = end
        return directory

    @property
    def archived_upto(self) -> int:
        with self._lock:
            return self._runs[-1].end_lsn if self._runs else 0

    @property
    def run_count(self) -> int:
        with self._lock:
            return len(self._runs)

    def snapshot(self) -> tuple[RunReader, ...]:
        with self._lock:
            return tuple(self._runs)

    def lsn_ranges(self) -> list[tuple[int, int]]:
        return [(r.begin_lsn, r.end_lsn) for r in self.snapshot()]

    def write(self, begin: int, end: int, records, count: int,
              now: float) -> tuple[RunReader, float]:
        """Write the run file for [begin, end) from a stream of count records
        sorted by (page id, LSN) and charge the archive device for its size.
        The caller registers the returned reader with publish or swap."""
        path = write_run(self.dir_path, begin, end, records, count, self.block_size)
        return RunReader(path), self.device.charge_write(os.path.getsize(path), now)

    def publish(self, reader: RunReader) -> None:
        with self._lock:
            expected = self._runs[-1].end_lsn if self._runs else 0
            if reader.begin_lsn != expected:
                raise ArchiveError(
                    f"run {reader.name} does not continue archive at {expected}")
            self._runs.append(reader)

    def _slice_locked(self, inputs) -> int:
        """Where inputs start in the manifest; raises unless they are one
        run of it or several adjacent ones, in order."""
        if inputs[0] not in self._runs:  # a snapshot taken before a merge
            raise CorruptRunError(inputs[0].name, "no longer in the manifest")
        i = self._runs.index(inputs[0])
        if self._runs[i:i + len(inputs)] != list(inputs):
            raise ArchiveError("merge inputs are not adjacent in the manifest")
        return i

    def swap(self, inputs, output: RunReader) -> None:
        with self._lock:
            i = self._slice_locked(inputs)
            self._runs[i:i + len(inputs)] = [output]

    def probe(self, first_page: int, last_page: int, min_lsn: int = 0,
              now: float = 0.0, end_lsn: int | None = None) -> ProbeResult:
        """Merged records for pages in [first_page, last_page] with
        lsn >= min_lsn, by (page_id, lsn); runs from end_lsn on are skipped."""
        if first_page > last_page:
            raise ArchiveError("empty page range")
        runs = self.snapshot()
        lists = []
        t = now
        merged = skipped = 0
        for run in runs:
            if run.end_lsn <= min_lsn or end_lsn is not None and run.begin_lsn >= end_lsn \
                    or run.block_span(first_page, last_page) == (0, 0):
                skipped += 1
                continue
            records, t_run = run.scan_range(first_page, last_page, min_lsn,
                                            self.device, now)
            t = max(t, t_run)
            merged += 1
            if records:
                lists.append(records)
        out = list(heapq.merge(*lists, key=_SORT_KEY)) if len(lists) > 1 else \
            (lists[0] if lists else [])
        return ProbeResult(out, t, merged, skipped)

    def merge_runs(self, inputs, now: float = 0.0) -> tuple[RunReader, float]:
        """Merge adjacent runs of the manifest (a list or tuple, in manifest
        order) into one covering their union LSN range.

        Inputs that are not adjacent in the manifest are refused before
        anything is written.  Publication order is: rename output into
        place, swap the manifest, then unlink inputs.  The inputs' files
        are gone afterwards, so a snapshot taken before the merge cannot
        be probed after it: probes and merges must not overlap.  The
        engine keeps them apart by stepping the archiver and the restore
        scheduler from one thread.
        """
        if not inputs:
            raise ArchiveError("nothing to merge")
        with self._lock:
            self._slice_locked(inputs)
        scans = [run.scan_all(self.device, now) for run in inputs]
        t = max(now, *(t_run for _, t_run in scans))
        output, t = self.write(inputs[0].begin_lsn, inputs[-1].end_lsn,
                               heapq.merge(*(records for records, _ in scans), key=_SORT_KEY),
                               sum(run.record_count for run in inputs), t)
        failpoints.hit("merge:pre_swap")
        self.swap(inputs, output)
        failpoints.hit("merge:pre_unlink")
        for run in inputs:
            if run.path != output.path:
                os.unlink(run.path)
        return output, t


class LogArchiver:
    """Single background producer that turns the WAL into archive runs.

    mode="sorted" builds indexed runs; mode="copy" writes the same bytes
    as plain unsorted .copy files (the baseline for overhead measurements;
    such files never enter the manifest and cannot serve probes).
    """

    def __init__(self, wal: WriteAheadLog, directory: ArchiveDirectory,
                 run_size_limit: int = 4096, mode: str = "sorted"):
        if run_size_limit <= 0:
            raise ArchiveError("run_size_limit must be positive")
        if mode not in ARCHIVE_MODES:
            raise ArchiveError(f"unknown archiving mode {mode}")
        self.wal = wal
        self.directory = directory
        self.run_size_limit = run_size_limit
        self.mode = mode
        self._workspace: list[LogRecord] = []
        # begin_lsn of the next run to emit, and LSN of the next WAL record
        # to read: both resume where the directory's last run ends.
        self._run_begin = directory.archived_upto
        self._consumed_lsn = self._run_begin or NULL_LSN + 1

    @property
    def archived_upto(self) -> int:
        return self._run_begin

    @property
    def consumed_lsn(self) -> int:
        return self._consumed_lsn

    def archive_step(self, batch_budget: int, now: float = 0.0) -> tuple[int, float]:
        """Consume up to batch_budget records from the WAL, and no more than
        the workspace needs to fill a run; emit the run once it is full.
        Returns (archived_upto, completion time)."""
        budget = min(batch_budget, self.run_size_limit - len(self._workspace))
        records, next_lsn, t = self.wal.read_suffix(self._consumed_lsn, budget, now)
        if records:
            self._workspace.extend(records)
            self._consumed_lsn = next_lsn
        if len(self._workspace) >= self.run_size_limit:
            t = self._emit(t)
        return self.archived_upto, t

    def archive_up_to(self, target_lsn: int, now: float = 0.0) -> float:
        """Archive everything below target_lsn, force-emitting a final
        (possibly small) run.  Restore may begin only once this returns."""
        if self.wal.end_lsn() < target_lsn:
            raise ArchiveError(f"WAL ends at {self.wal.end_lsn()}, "
                               f"cannot archive to {target_lsn}")
        t = now
        while self._consumed_lsn < target_lsn:
            _, t = self.archive_step(self.run_size_limit, t)
        if self._workspace and self.archived_upto < target_lsn:
            t = self._emit(t)
        return t

    def _emit(self, now: float) -> float:
        """Emit the workspace as one run and start a new one.

        The workspace is only replaced after the run is published, so a
        failed emit is retry-safe."""
        batch = self._workspace
        begin = self._run_begin
        end = batch[-1].next_lsn
        if self.mode == "copy":
            t = self._emit_copy(batch, begin, end, now)
        else:
            run, t = self.directory.write(begin, end, sorted(batch, key=_SORT_KEY), len(batch), now)
            self.directory.publish(run)
        self._workspace = []
        self._run_begin = end
        return t

    def _emit_copy(self, batch: list[LogRecord], begin: int, end: int, now: float) -> float:
        blob = b"".join(r.encode() for r in batch)
        path = os.path.join(self.directory.dir_path, f"archive_{begin}_{end}.copy")
        failpoints.publish(path, lambda f: f.write(blob))
        return self.directory.device.charge_write(len(blob), now)

    def run_maintenance(self, now: float = 0.0) -> float:
        """Merge every run into one; return the merge's completion time, or
        now if fewer than two runs exist.

        This is single-pass restore's merge (Sauer, Graefe & Haerder, BTW
        2015), made when restore begins: every probe then scans one run,
        however long the log before the failure grew, and restore waits
        for the merge."""
        runs = list(self.directory.snapshot())
        if len(runs) < 2:
            return now
        return self.directory.merge_runs(runs, now)[1]
