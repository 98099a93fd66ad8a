"""Per-layer metrics of a traced run.

Wall-time metrics named <layer>.<op>_s are self times of the wrapped
entry point (its time minus the wrapped calls inside it), except three
inclusive spans: archive.catchup_s, archive.probe_s and restore.step_s.
Counts come from the tracer's tallies or the engine's public counters;
the virtual ones (busy_frac, batch_ms_*, blocked_fixes) repeat exactly
between the traced and untraced runs.
"""

from segstore.metrics import percentile

ROLES = ("database", "replacement", "log", "archive", "backup")

# name -> (unit, better)
PER_LAYER = {
    "bench.self_s": ("s", "lower"),
    "workload.next_txn_s": ("s", "lower"),
    "bufferpool.fixes": ("count", "lower"),
    "bufferpool.hit_ratio": ("ratio", "higher"),
    "bufferpool.evictions": ("count", "lower"),
    "bufferpool.blocked_fixes": ("count", "lower"),
    "bufferpool.fix_s": ("s", "lower"),
    "bufferpool.unfix_s": ("s", "lower"),
    "bufferpool.clean_s": ("s", "lower"),
    "bufferpool.cleaned_pages": ("count", "lower"),
    "wal.appends": ("count", "lower"),
    "wal.append_s": ("s", "lower"),
    "wal.log_writes": ("count", "lower"),
    "wal.flush_s": ("s", "lower"),
    "wal.read_suffix_s": ("s", "lower"),
    "archive.steps_online": ("count", "higher"),
    "archive.lag_at_failure_bytes": ("bytes", "lower"),
    "archive.catchup_s": ("s", "lower"),
    "archive.runs_emitted": ("count", "lower"),
    "archive.merges": ("count", "lower"),
    "archive.merge_bytes": ("bytes", "lower"),
    "archive.probes": ("count", "lower"),
    "archive.probe_s": ("s", "lower"),
    "archive.runs_probed": ("count", "lower"),
    "archive.runs_skipped": ("count", "higher"),
    "runfile.scan_s": ("s", "lower"),
    "runfile.bytes_scanned": ("bytes", "lower"),
    "runfile.kept_ratio": ("ratio", "higher"),
    "runfile.write_s": ("s", "lower"),
    "runfile.bytes_written": ("bytes", "lower"),
    "bloom.checks": ("count", "lower"),
    "bloom.reject_ratio": ("ratio", "higher"),
    "backup.fetches": ("count", "lower"),
    "backup.pages_fetched": ("count", "lower"),
    "backup.fetch_s": ("s", "lower"),
    "restore.batches": ("count", "lower"),
    "restore.demand_requests": ("count", "lower"),
    "restore.segments_per_batch": ("count", "higher"),
    "restore.success_ratio": ("ratio", "higher"),
    "restore.batch_ms_p50": ("ms", "lower"),
    "restore.batch_ms_p99": ("ms", "lower"),
    "restore.step_s": ("s", "lower"),
    "restore.replay_s": ("s", "lower"),
    "restore.records_replayed": ("count", "lower"),
    "volume.page_reads": ("count", "lower"),
    "volume.page_writes": ("count", "lower"),
    "volume.span_writes": ("count", "lower"),
    "volume.io_s": ("s", "lower"),
    "pages.encodes": ("count", "lower"),
    "pages.encode_s": ("s", "lower"),
    "pages.decodes": ("count", "lower"),
    "pages.decode_s": ("s", "lower"),
    **{f"device.{role}.{m}": (unit, "lower") for role in ROLES
       for m, unit in (("ops", "count"), ("bytes", "bytes"), ("busy_frac", "ratio"))},
    "device.io_s": ("s", "lower"),
    "device.database.setup_busy_ms": ("ms", "lower"),
    "metrics.record_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_us_per_txn": ("us", "lower"),
}

# Metrics the untraced run measures, in print order: wall ones from its
# Rep.wall(), virtual ones from measures.virtual_metrics.  The virtual
# failure-window ones are 0 on a workload without a failure.
FROM_UNTRACED = {
    "sim_us_per_txn": ("us", "lower"),
    "sim_us_per_txn_run": ("us", "lower"),
    "sim_s_after_failure": ("s", "lower"),
    "peak_rss_mb_run": ("MB", "lower"),
    "txn_p50_ms": ("ms", "lower"),
    "post_p50_ms": ("ms", "lower"),
    "post_p99_ms": ("ms", "lower"),
    "post_p999_ms": ("ms", "lower"),
    "post_tps": ("txn/s", "higher"),
    "regain_s": ("s", "lower"),
    "restore_start_ms": ("ms", "lower"),
    "restore_s": ("s", "lower"),
}
PER_LAYER.update(FROM_UNTRACED)


def _devices(engine) -> dict:
    return {"database": engine.volume.device,
            "replacement": engine.replacement.device,
            "log": engine.wal.device,
            "archive": engine.archive_dir.device,
            "backup": engine.backup.device}


def device_counters(engine) -> dict:
    """role -> (ops, bytes) as counted so far."""
    return {role: (d.reads + d.writes, d.bytes_read + d.bytes_written)
            for role, d in _devices(engine).items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rep, tracer, plain_wall: dict) -> dict:
    """Every PER_LAYER metric but the untraced run's virtual ones, from a
    traced Rep and the untraced run's wall metrics."""
    eng, report = rep.engine, rep.report
    self_s, total_s, calls = tracer.self_s, tracer.total_s, tracer.calls

    def own(name):
        return self_s.get(name, 0.0)

    def n(name):
        return tracer.counts.get(name, 0)

    events = report.restore_events
    batch_ms = [(e[1] - e[0]) / 1e3 for e in events]
    mgr = eng.manager
    attempts = sum(mgr.attempt_count.values()) if mgr else 0
    successes = sum(mgr.success_count.values()) if mgr else 0
    span_us = max([report.duration_s * 1e6] + [e[1] for e in events])
    fixes = n("bufferpool.fixes")
    traced_us_per_txn = rep.run_s / max(report.total_txns, 1) * 1e6

    out = {
        "bench.self_s": rep.run_s - tracer.self_sum(),
        "workload.next_txn_s": own("workload.next_txn"),
        "bufferpool.fixes": fixes,
        "bufferpool.hit_ratio": 1.0 - _ratio(eng.pool.page_reads, fixes),
        "bufferpool.evictions": eng.pool.evictions,
        "bufferpool.blocked_fixes": n("bufferpool.blocked_fixes"),
        "bufferpool.fix_s": own("bufferpool.fix"),
        "bufferpool.unfix_s": own("bufferpool.unfix"),
        "bufferpool.clean_s": own("bufferpool.clean"),
        "bufferpool.cleaned_pages": n("bufferpool.cleaned_pages"),
        "wal.appends": calls.get("wal.append", 0),
        "wal.append_s": own("wal.append"),
        "wal.flush_s": own("wal.flush"),
        "wal.read_suffix_s": own("wal.read_suffix"),
        "archive.steps_online": rep.at_failure["archive_steps"],
        "archive.lag_at_failure_bytes": rep.at_failure["lag_bytes"],
        "archive.catchup_s": total_s.get("archive.catchup", 0.0),
        "archive.runs_emitted": calls.get("runfile.write", 0) - calls.get("archive.merge", 0),
        "archive.merges": calls.get("archive.merge", 0),
        "archive.merge_bytes": n("archive.merge_bytes"),
        "archive.probes": calls.get("archive.probe", 0),
        "archive.probe_s": total_s.get("archive.probe", 0.0),
        "archive.runs_probed": n("archive.runs_probed"),
        "archive.runs_skipped": n("archive.runs_skipped"),
        "runfile.scan_s": own("runfile.scan"),
        "runfile.bytes_scanned": n("runfile.bytes_scanned"),
        "runfile.kept_ratio": _ratio(n("runfile.bytes_kept"), n("runfile.bytes_scanned")),
        "runfile.write_s": own("runfile.write"),
        "runfile.bytes_written": n("runfile.bytes_written"),
        "bloom.checks": calls.get("bloom.check", 0),
        "bloom.reject_ratio": _ratio(n("bloom.rejects"), calls.get("bloom.check", 0)),
        "backup.fetches": calls.get("backup.fetch", 0),
        "backup.pages_fetched": n("backup.pages_fetched"),
        "backup.fetch_s": own("backup.fetch"),
        "restore.batches": len(events),
        "restore.demand_requests": mgr.demand_requests if mgr else 0,
        "restore.segments_per_batch": _ratio(sum(e[3] for e in events), len(events)),
        "restore.success_ratio": _ratio(successes, attempts),
        "restore.batch_ms_p50": percentile(batch_ms, 0.50),
        "restore.batch_ms_p99": percentile(batch_ms, 0.99),
        "restore.step_s": total_s.get("restore.step", 0.0),
        "restore.replay_s": own("restore.replay"),
        "restore.records_replayed": n("restore.records_replayed"),
        "volume.page_reads": calls.get("volume.read_page", 0),
        "volume.page_writes": calls.get("volume.write_page", 0),
        "volume.span_writes": calls.get("volume.write_span", 0),
        "volume.io_s": sum(v for k, v in self_s.items() if k.startswith("volume.")),
        "pages.encodes": calls.get("pages.encode", 0),
        "pages.encode_s": own("pages.encode"),
        "pages.decodes": calls.get("pages.decode", 0),
        "pages.decode_s": own("pages.decode"),
        "device.io_s": sum(v for k, v in self_s.items() if k.startswith("device.")),
        "device.database.setup_busy_ms": rep.setup_busy_us / 1e3,
        "metrics.record_s": own("metrics.record"),
        "trace.wall_s": rep.run_s,
        "trace.overhead_us_per_txn": traced_us_per_txn - plain_wall["sim_us_per_txn_run"],
        **{k: v for k, v in plain_wall.items() if k in FROM_UNTRACED},
    }
    after = device_counters(eng)
    for role, dev in _devices(eng).items():
        ops = after[role][0] - rep.devices[role][0]
        nbytes = after[role][1] - rep.devices[role][1]
        out[f"device.{role}.ops"] = ops
        out[f"device.{role}.bytes"] = nbytes
        busy = dev.latency.fixed_us * ops + dev.latency.per_byte_us * nbytes
        out[f"device.{role}.busy_frac"] = busy / span_us
    out["wal.log_writes"] = _devices(eng)["log"].writes - rep.log_writes0
    return out
