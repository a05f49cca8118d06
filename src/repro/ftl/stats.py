"""I/O statistics kept by the NoFTL device.

These counters are the raw material for every table in the paper's
evaluation: host reads/writes, delta writes (In-Place Appends), garbage
collection page migrations and erases, and host-observed latencies.

Since the telemetry subsystem landed, :class:`DeviceStats` is a
:class:`~repro.telemetry.metrics.CounterFacade`: attribute reads and
writes (``stats.host_reads += 1``) delegate to registry-owned
:class:`~repro.telemetry.metrics.Counter` objects named ``device_*``
(``shard<i>_device_*`` inside a sharded device), so one Prometheus dump
of the registry carries the device counters next to the latency
histograms.
"""

from __future__ import annotations

from typing import Mapping

from ..telemetry.metrics import CounterFacade

#: ``snapshot()`` key derived from raw counters -> (numerator, denominator).
DERIVED_RATIOS = {
    "migrations_per_host_write": ("gc_page_migrations", "host_writes"),
    "erases_per_host_write": ("gc_erases", "host_writes"),
    "ipa_fraction": ("delta_writes", "host_writes"),
    "mean_read_latency_us": ("read_latency_us_total", "host_reads"),
    "mean_write_latency_us": ("write_latency_us_total", "host_writes"),
}


def derived_ratio(raw: Mapping, key: str) -> float:
    """One :data:`DERIVED_RATIOS` value from a dict of raw counters — a
    device's own or the sum over shards (0.0 on an empty denominator)."""
    numerator, denominator = DERIVED_RATIOS[key]
    base = raw.get(denominator, 0)
    return raw.get(numerator, 0) / base if base else 0.0


class DeviceStats(CounterFacade):
    """Counters of one NoFTL device (or one region, when split).

    Keyword construction, ``+=`` updates, the ``__init__()`` reset and
    :meth:`bind` come from the façade base (see its docs); this class
    adds the field table and the ratios the paper's tables report.
    """

    PREFIX = "device_"
    FIELDS = {
        "host_reads": "Host read commands served",
        "host_page_writes": "Full-page out-of-place host writes",
        "delta_writes": "write_delta commands executed as In-Place Appends",
        "gc_page_migrations": "Valid pages migrated by garbage collection",
        "gc_erases": "Blocks erased by garbage collection",
        "bytes_host_read": "Payload bytes returned to the host",
        "bytes_page_written": "Payload bytes of out-of-place page writes",
        "bytes_delta_written": "Payload bytes of in-place delta appends",
        "read_latency_us_total": "Sum of observed host read latencies (us)",
        "write_latency_us_total": "Sum of observed host write latencies (us)",
        "gc_time_us_total": "Total time consumed by GC rounds (us)",
    }
    FLOAT_FIELDS = frozenset({
        "read_latency_us_total", "write_latency_us_total", "gc_time_us_total",
    })

    @property
    def host_writes(self) -> int:
        """All DBMS write requests: out-of-place writes + In-Place Appends."""
        return self.host_page_writes + self.delta_writes

    @property
    def ipa_fraction(self) -> float:
        """Fraction of write requests served as In-Place Appends."""
        return self.snapshot()["ipa_fraction"]

    @property
    def migrations_per_host_write(self) -> float:
        """GC page migrations amortized over host write requests."""
        return self.snapshot()["migrations_per_host_write"]

    @property
    def erases_per_host_write(self) -> float:
        """GC erases amortized over host write requests."""
        return self.snapshot()["erases_per_host_write"]

    def snapshot(self) -> dict:
        """Plain dict of raw and derived values for reporting."""
        snap = {
            "host_reads": self.host_reads,
            "host_writes": self.host_writes,
            "host_page_writes": self.host_page_writes,
            "delta_writes": self.delta_writes,
            "gc_page_migrations": self.gc_page_migrations,
            "gc_erases": self.gc_erases,
            "bytes_host_read": self.bytes_host_read,
            "bytes_page_written": self.bytes_page_written,
            "bytes_delta_written": self.bytes_delta_written,
            "read_latency_us_total": self.read_latency_us_total,
            "write_latency_us_total": self.write_latency_us_total,
            "gc_time_us_total": self.gc_time_us_total,
        }
        snap.update((key, derived_ratio(snap, key)) for key in DERIVED_RATIOS)
        return snap
