"""End-to-end metrics of one run, on the virtual clock.

Every value here is a pure function of the workload config and seed.
"""

import math
import statistics

from segstore.metrics import percentile

_US = 1_000_000.0

# Warm-up after the database device's set-up carry-over ends
# (BackupImage.create leaves the device busy, see setup_busy_us); the warm
# window that tps and txn_* cover starts at the next whole second.
WARMUP_S = 0.5
# C6's definition of regaining throughput: a 3-s mean at 95% of tps.
REGAIN_WINDOW_S = 3
REGAIN_SHARE = 0.95


def setup_busy_us(device) -> float:
    """Virtual busy time the set-up left queued on a device: its counted
    transfers priced by its own latency model."""
    lat = device.latency
    return (lat.fixed_us * (device.reads + device.writes)
            + lat.per_byte_us * (device.bytes_read + device.bytes_written))


def warm_window(setup_busy: float, end_s: float) -> tuple[int, int]:
    """Whole seconds [start, end) of the warm pre-failure window."""
    start = math.ceil(setup_busy / _US + WARMUP_S)
    end = int(end_s)
    if end - start < 1:
        raise ValueError(f"warm window [{start}, {end}) is empty")
    return start, end


def virtual_metrics(report, commit_us: list[float], setup_busy: float,
                    t_fail_us: float | None) -> dict:
    """The virtual end-to-end metrics; commit_us[i] is the commit time of
    report.latency_samples[i]."""
    per_sec = report.per_second_txns()
    end_s = t_fail_us / _US if t_fail_us is not None else report.duration_s
    lo, hi = warm_window(setup_busy, end_s)
    tps = statistics.median(per_sec[lo:hi])
    warm = [lat for (_, lat, _), t in zip(report.latency_samples, commit_us)
            if lo * _US <= t < hi * _US]
    out = {
        "tps": float(tps),
        "txn_mean_ms": sum(warm) / len(warm) / 1e3,
        "txn_p50_ms": percentile(warm, 0.50) / 1e3,
        "txn_p999_ms": percentile(warm, 0.999) / 1e3,
        "warm_window_s": [lo, hi],
        "warm_samples": len(warm),
    }
    if t_fail_us is None:
        return out
    post = report.post_failure_latencies()
    fail_s = int(t_fail_us // _US)
    dur_s = int(report.duration_s)
    regain = dur_s - fail_s  # censored: never regained inside the run
    for s in range(fail_s + 1, dur_s - REGAIN_WINDOW_S + 1):
        if sum(per_sec[s:s + REGAIN_WINDOW_S]) / REGAIN_WINDOW_S >= REGAIN_SHARE * tps:
            regain = s - fail_s
            break
    events = report.restore_events
    out.update({
        "post_p50_ms": percentile(post, 0.50) / 1e3,
        "post_p99_ms": percentile(post, 0.99) / 1e3,
        "post_p999_ms": percentile(post, 0.999) / 1e3,
        "post_tps": len(post) / (report.duration_s - t_fail_us / _US),
        "regain_s": float(regain),
        "restore_start_ms": (report.restore_begin_us - t_fail_us) / 1e3,
        "restore_s": (max(e[1] for e in events) - report.restore_begin_us) / _US
        if events else 0.0,
        "post_samples": len(post),
    })
    return out
