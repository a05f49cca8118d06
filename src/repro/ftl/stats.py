"""I/O statistics kept by the NoFTL device.

These counters are the raw material for every table in the paper's
evaluation: host reads/writes, delta writes (In-Place Appends), garbage
collection page migrations and erases, and host-observed latencies.

:class:`DeviceStats` is a plain dataclass: ``stats.host_reads += 1`` is
an attribute update, telemetry or not.  Binding telemetry registers one
read-through registry counter per field, named ``device_*``
(``shard<i>_device_*`` inside a sharded device), so one Prometheus dump
of the registry carries the device counters next to the latency
histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import ClassVar

from ..telemetry.metrics import counter_field

#: ``snapshot()`` key derived from raw counters -> (numerator, denominator).
DERIVED_RATIOS = {
    "migrations_per_host_write": ("gc_page_migrations", "host_writes"),
    "erases_per_host_write": ("gc_erases", "host_writes"),
    "ipa_fraction": ("delta_writes", "host_writes"),
    "mean_read_latency_us": ("read_latency_us_total", "host_reads"),
    "mean_write_latency_us": ("write_latency_us_total", "host_writes"),
}


def derived_ratio(raw, key: str) -> float:
    """One :data:`DERIVED_RATIOS` value from raw counters — a
    :class:`DeviceStats`, or a dict of them (a device's snapshot or the
    sum over shards); 0.0 on an empty denominator."""
    numerator, denominator = DERIVED_RATIOS[key]
    get = raw.get if isinstance(raw, dict) else partial(getattr, raw)
    base = get(denominator, 0)
    return get(numerator, 0) / base if base else 0.0


@dataclass(slots=True)
class DeviceStats:
    """Counters of one NoFTL device (or one region, when split).

    Re-running ``__init__()`` zeroes every field in place (the devices'
    ``reset_stats``), so a bound registry keeps reading this object.
    """

    PREFIX: ClassVar[str] = "device_"
    host_reads: int = counter_field("Host read commands served")
    host_page_writes: int = counter_field("Full-page out-of-place host writes")
    delta_writes: int = counter_field("write_delta commands executed as In-Place Appends")
    gc_page_migrations: int = counter_field("Valid pages migrated by garbage collection")
    gc_erases: int = counter_field("Blocks erased by garbage collection")
    bytes_host_read: int = counter_field("Payload bytes returned to the host")
    bytes_page_written: int = counter_field("Payload bytes of out-of-place page writes")
    bytes_delta_written: int = counter_field("Payload bytes of in-place delta appends")
    read_latency_us_total: float = counter_field(
        "Sum of observed host read latencies (us)", 0.0)
    write_latency_us_total: float = counter_field(
        "Sum of observed host write latencies (us)", 0.0)
    gc_time_us_total: float = counter_field("Total time consumed by GC rounds (us)", 0.0)

    @property
    def host_writes(self) -> int:
        """All DBMS write requests: out-of-place writes + In-Place Appends."""
        return self.host_page_writes + self.delta_writes

    @property
    def ipa_fraction(self) -> float:
        """Fraction of write requests served as In-Place Appends."""
        return derived_ratio(self, "ipa_fraction")

    @property
    def migrations_per_host_write(self) -> float:
        """GC page migrations amortized over host write requests."""
        return derived_ratio(self, "migrations_per_host_write")

    @property
    def erases_per_host_write(self) -> float:
        """GC erases amortized over host write requests."""
        return derived_ratio(self, "erases_per_host_write")

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
