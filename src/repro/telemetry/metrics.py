"""Metrics primitives: counters, gauges, fixed-bucket histograms.

The :class:`MetricsRegistry` exports every number the simulator
reports.  The aggregate stats objects (:class:`~repro.ftl.stats.DeviceStats`,
:class:`~repro.core.stats.IPAStats`, :class:`~repro.ftl.blockdev.BlockSSDStats`)
are plain dataclasses owning their counts; binding registers one
:class:`FieldCounter` per field (:meth:`MetricsRegistry.read_fields`), so
one Prometheus dump carries the whole stack's accounting while an
increment stays a plain attribute update.

Histograms use **fixed** bucket boundaries chosen at creation time
(Prometheus-style cumulative ``le`` buckets at export).  Three default
bucket families cover the paper's distributions: host latencies in
microseconds, delta sizes in bytes, and appends-per-page counts.
"""

from __future__ import annotations

import bisect
from dataclasses import field, fields


#: Latency buckets in microseconds (reads start ~25us, GC-delayed
#: writes reach tens of milliseconds).
LATENCY_BUCKETS_US: tuple[float, ...] = (
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0,
    1_600.0, 3_200.0, 6_400.0, 12_800.0, 25_600.0, 51_200.0,
)

#: Delta-size buckets in bytes (the paper's update sizes concentrate
#: below a few dozen bytes; a full 4KiB page is the ceiling).
SIZE_BUCKETS_BYTES: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
)

#: Appends-per-page buckets (the paper's N is single-digit).
APPEND_BUCKETS: tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16)


class Counter:
    """A monotonically growing value (resettable between runs)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0


class FieldCounter(Counter):
    """A counter that reads, and resets in place, one field of a stats object."""

    __slots__ = ("owner", "field")

    def __init__(self, name: str, help: str, owner, field: str) -> None:
        self.name = name
        self.help = help
        self.owner = owner
        self.field = field

    @property
    def value(self):
        return getattr(self.owner, self.field)

    @value.setter
    def value(self, value) -> None:
        setattr(self.owner, self.field, value)


def counter_field(help: str, zero: float = 0):
    """A stats-dataclass field exported as a counter with ``help`` text."""
    return field(default=zero, metadata={"help": help})


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount

    def reset(self) -> None:
        """Zero the gauge."""
        self.value = 0.0


class Histogram:
    """Fixed-bucket distribution with sum and count.

    ``buckets`` are *upper bounds* in increasing order; an implicit
    ``+Inf`` bucket catches everything above the last bound.  Bucket
    counts are stored per-bucket (non-cumulative);
    :meth:`cumulative_counts` produces the Prometheus ``le`` view.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets, help: str = "") -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name!r}: buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample.

        A bucketed estimate (exact values are not retained); returns
        the last finite bound for samples in the overflow bucket and
        0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            if running >= rank:
                return bound
        return self.buckets[-1]

    def reset(self) -> None:
        """Drop all samples."""
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0


class MetricsRegistry:
    """Named collection of counters, gauges, and histograms.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    for an existing name returns the registered instance (and raises
    on a type clash), so instrumentation sites can share metrics
    without coordination.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.values())

    def get(self, name: str):
        """The metric registered under ``name`` (``None`` if absent)."""
        return self._metrics.get(name)

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(existing).__name__}, "
                    f"not a {cls.__name__}"
                )
            return existing
        metric = cls(name, help=help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter named ``name``."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge named ``name``."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, buckets=LATENCY_BUCKETS_US, help: str = "") -> Histogram:
        """Get or create the histogram named ``name``."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def read_fields(self, stats, prefix: str = "") -> None:
        """Export each field of a stats dataclass as a :class:`FieldCounter`
        named ``{prefix}{stats.PREFIX}{field}``.  A name registered before
        keeps its position and now reads ``stats``: the last bound wins."""
        for spec in fields(stats):
            name = f"{prefix}{stats.PREFIX}{spec.name}"
            self._metrics[name] = FieldCounter(name, spec.metadata["help"], stats, spec.name)

    def snapshot(self) -> dict:
        """Plain dict of every metric's current state.

        Counters and gauges map to their value; histograms map to a
        sub-dict with ``sum``, ``count`` and per-bucket counts.
        """
        out: dict = {}
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    "sum": metric.sum,
                    "count": metric.count,
                    "buckets": {
                        str(bound): count
                        for bound, count in metric.cumulative_counts()
                    },
                }
            else:
                out[metric.name] = metric.value
        return out

    def reset(self) -> None:
        """Zero every registered metric (run boundaries)."""
        for metric in self._metrics.values():
            metric.reset()
