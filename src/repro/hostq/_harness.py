"""Plumbing shared by the device- and transaction-level load tests.

:mod:`~repro.hostq.loadtest` and :mod:`~repro.hostq.txnexec` measure
different things (page requests vs whole transactions) and keep their
own config and result classes, but both label a backend, validate the
same client/queue fields, meter die utilization over a makespan, and
summarize an exact latency sample set.  Those four pieces live here,
once; each run reports through its own result object.
"""

from __future__ import annotations

from ..analysis.cdf import sample_percentile
from ..errors import ReproError
from ..telemetry.metrics import MetricsRegistry
from ..workloads.sessions import PROFILES

#: Reported latency quantiles, in report order.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


def validate_common(config) -> None:
    """Reject the fields both load-test configs share (ReproError).

    Runs before any device is built, so a bad flag costs nothing and
    the CLI prints ``error: ...`` instead of a constructor's traceback.
    """
    if config.profile not in PROFILES:
        raise ReproError(
            f"unknown profile {config.profile!r}; choose from {sorted(PROFILES)}"
        )
    if config.clients < 1:
        raise ReproError("need at least one client")
    if config.queue_depth < 1:
        raise ReproError(f"queue depth must be >= 1, got {config.queue_depth}")
    if config.group_commit < 1:
        raise ReproError(f"group commit must be >= 1, got {config.group_commit}")
    if config.think_us < 0:
        raise ReproError(f"think time must be >= 0, got {config.think_us}")


def _total_busy_us(device) -> float:
    """Sum of per-chip accumulated command time across the device."""
    scratch = MetricsRegistry()
    device.collect_gauges(scratch)
    return sum(
        metric.value
        for metric in scratch
        if "chip_" in metric.name and metric.name.endswith("_busy_time_us")
    )


class DieMeter:
    """Makespan and die utilization of one measured interval.

    Armed after the load phase (so prefill time and chip work are
    excluded); :meth:`stop` closes the interval at the scheduler's
    final simulated time.
    """

    def __init__(self, device) -> None:
        self.device = device
        self.t0 = max(device.occupancy())
        self._busy0 = _total_busy_us(device)

    def stop(self, end: float) -> tuple[float, int, float]:
        """``(makespan_us, channels, die_utilization)`` up to ``end``."""
        makespan = max(end - self.t0, 1e-9)
        channels = len(self.device.occupancy())
        busy = _total_busy_us(self.device) - self._busy0
        return makespan, channels, min(1.0, busy / (channels * makespan))


def summarize(samples: list[float]) -> tuple[float, float, dict[str, float]]:
    """``(mean, max, percentiles)`` over the exact latency samples."""
    ordered = sorted(samples)
    return (
        sum(ordered) / len(ordered) if ordered else 0.0,
        ordered[-1] if ordered else 0.0,
        {name: sample_percentile(ordered, q) for name, q in QUANTILES},
    )
