"""The stats-dataclass contract, once for all three exported stats classes.

``DeviceStats``, ``IPAStats`` and ``BlockSSDStats`` are plain
``@dataclass(slots=True)`` classes that own their counts; the telemetry
registry only reads them (``MetricsRegistry.read_fields``).  What the
rest of the stack relies on — keyword construction, plain-attribute
``+=``, float zeros for time sums, the in-place ``__init__()`` reset
idiom, the registry names and help texts, equality, repr and the
``snapshot()`` key order reports iterate — is pinned here per class.
"""

from dataclasses import fields

import pytest

from repro.core.stats import IPAStats
from repro.ftl.blockdev import BlockSSDStats
from repro.ftl.stats import DeviceStats
from repro.telemetry.metrics import MetricsRegistry

#: (class, metric-name layer prefix, fields that are float time sums,
#: ``list(cls().snapshot())`` at the commit that introduced the shared
#: base — key order is contract).
CASES = [
    (DeviceStats, "device_", {
        "read_latency_us_total", "write_latency_us_total", "gc_time_us_total",
    }, [
        "host_reads", "host_writes", "host_page_writes", "delta_writes",
        "gc_page_migrations", "gc_erases", "bytes_host_read",
        "bytes_page_written", "bytes_delta_written", "read_latency_us_total",
        "write_latency_us_total", "gc_time_us_total",
        "migrations_per_host_write", "erases_per_host_write", "ipa_fraction",
        "mean_read_latency_us", "mean_write_latency_us",
    ]),
    (IPAStats, "ipa_", set(), [
        "ipa_flushes", "oop_flushes", "skipped_flushes",
        "delta_records_written", "delta_bytes_written", "device_fallbacks",
        "budget_overflows", "ecc_corrected_bits", "ipa_fraction",
    ]),
    (BlockSSDStats, "blockssd_", set(), [
        "reads", "writes", "delta_commands", "deltas_in_place", "deltas_rmw",
    ]),
]


@pytest.mark.parametrize(
    "cls,layer,float_fields,snapshot_keys", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_facade_contract(cls, layer, float_fields, snapshot_keys):
    names = [spec.name for spec in fields(cls)]
    first, second = names[:2]

    # Keyword construction; ``+=`` is a plain slot update, no property.
    stats = cls(**{first: 3})
    assert getattr(stats, first) == 3
    setattr(stats, second, getattr(stats, second) + 2)
    assert getattr(stats, second) == 2
    assert not isinstance(getattr(cls, first), property)
    assert not hasattr(stats, "__dict__")
    with pytest.raises(TypeError):
        cls(no_such_counter=1)

    # Zero values: time sums are floats even while zero (reports print
    # them as such), everything else is an int.
    zeros = cls()
    assert {name for name in names if isinstance(getattr(zeros, name), float)} == float_fields
    assert all(getattr(zeros, name) == 0 for name in names)

    # The registry reads the fields through views named by the layer
    # prefix (plus a composite-device prefix), with a help text each.
    registry = MetricsRegistry()
    registry.read_fields(stats, prefix="shard3_")
    assert [metric.name for metric in registry] == [
        f"shard3_{layer}{name}" for name in names
    ]
    assert all(metric.help for metric in registry)
    view = registry.get(f"shard3_{layer}{first}")
    assert view.value == 3

    # ``__init__()`` resets the same object in place: the view stays valid.
    stats.__init__()
    assert getattr(stats, first) == 0
    setattr(stats, first, 4)
    assert view.value == 4
    view.inc(2)
    assert getattr(stats, first) == 6

    # A registry reset zeroes the fields themselves, to int 0.
    registry.reset()
    assert all(getattr(stats, name) == 0 for name in names)
    assert all(type(getattr(stats, name)) is int for name in names)

    # Equality and repr cover exactly the fields, in order.
    assert cls(**{first: 2}) == cls(**{first: 2})
    assert cls(**{first: 2}) != cls()
    assert cls() != object()
    text = repr(cls(**{first: 2}))
    assert text.startswith(f"{cls.__name__}({first}=2, ")
    assert [
        part.split("=")[0]
        for part in text[len(cls.__name__) + 1:-1].split(", ")
    ] == names

    assert list(cls().snapshot()) == snapshot_keys


def test_last_object_bound_under_a_name_wins():
    registry = MetricsRegistry()
    registry.counter("host_read_latency_us_count")
    old, new = DeviceStats(host_reads=1), DeviceStats(host_reads=7)
    registry.read_fields(old)
    registry.read_fields(new)
    assert registry.get("device_host_reads").value == 7
    # Re-binding keeps each name's position in the dump.
    assert [metric.name for metric in registry][:2] == [
        "host_read_latency_us_count", "device_host_reads",
    ]
