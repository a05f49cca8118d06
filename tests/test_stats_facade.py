"""The registry-counter façade contract, once for all three stats classes.

``DeviceStats``, ``IPAStats`` and ``BlockSSDStats`` share one
table-driven base (``repro.telemetry.metrics.CounterFacade``); what the
rest of the stack relies on — keyword construction, ``+=`` through the
property, the ``__init__()`` reset idiom, ``bind``, equality, repr, the
registry metric names and the ``snapshot()`` key order reports iterate —
is pinned here per class.
"""

import pytest

from repro.core.stats import IPAStats
from repro.ftl.blockdev import BlockSSDStats
from repro.ftl.stats import DeviceStats
from repro.telemetry.metrics import MetricsRegistry

#: (class, metric-name layer prefix, ``list(cls().snapshot())`` at the
#: commit that introduced the shared base — key order is contract).
CASES = [
    (DeviceStats, "device_", [
        "host_reads", "host_writes", "host_page_writes", "delta_writes",
        "gc_page_migrations", "gc_erases", "bytes_host_read",
        "bytes_page_written", "bytes_delta_written", "read_latency_us_total",
        "write_latency_us_total", "gc_time_us_total",
        "migrations_per_host_write", "erases_per_host_write", "ipa_fraction",
        "mean_read_latency_us", "mean_write_latency_us",
    ]),
    (IPAStats, "ipa_", [
        "ipa_flushes", "oop_flushes", "skipped_flushes",
        "delta_records_written", "delta_bytes_written", "device_fallbacks",
        "budget_overflows", "ecc_corrected_bits", "ipa_fraction",
    ]),
    (BlockSSDStats, "blockssd_", [
        "reads", "writes", "delta_commands", "deltas_in_place", "deltas_rmw",
    ]),
]


@pytest.mark.parametrize(
    "cls,layer,snapshot_keys", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_facade_contract(cls, layer, snapshot_keys):
    first, second = list(cls.FIELDS)[:2]

    # Keyword construction; ``+=`` goes through a class-level property.
    stats = cls(**{first: 3})
    assert getattr(stats, first) == 3
    setattr(stats, second, getattr(stats, second) + 2)
    assert getattr(stats, second) == 2
    assert isinstance(getattr(cls, first), property)
    with pytest.raises(TypeError):
        cls(no_such_counter=1)

    # Zero values: time sums are floats even while zero (reports print
    # them as such), everything else is an int.
    for name in cls.FIELDS:
        zero = getattr(cls(), name)
        assert zero == 0
        assert isinstance(zero, float) == (name in cls.FLOAT_FIELDS)

    # Registry metric names, plain and with a composite-device prefix.
    registry = MetricsRegistry()
    stats = cls(registry=registry, prefix="shard3_", **{first: 9})
    assert [metric.name for metric in registry] == [
        f"shard3_{layer}{name}" for name in cls.FIELDS
    ]
    assert all(metric.help for metric in registry)
    private = cls()
    assert [metric.name for metric in private._registry] == [
        f"{layer}{name}" for name in cls.FIELDS
    ]

    # ``__init__()`` resets values but keeps registry home and prefix.
    stats.__init__()
    assert getattr(stats, first) == 0
    assert registry.get(f"shard3_{layer}{first}") is stats._metrics[first]
    setattr(stats, first, 4)
    assert registry.get(f"shard3_{layer}{first}").value == 4

    # ``bind`` re-homes without losing values; a later reset stays put.
    shared = MetricsRegistry()
    stats.bind(shared)
    assert shared.get(f"shard3_{layer}{first}").value == 4
    setattr(stats, first, 6)
    assert shared.get(f"shard3_{layer}{first}").value == 6
    stats.__init__()
    assert shared.get(f"shard3_{layer}{first}") is stats._metrics[first]

    # Equality and repr cover exactly the field table, in order.
    assert cls(**{first: 2}) == cls(**{first: 2})
    assert cls(**{first: 2}) != cls()
    assert cls() != object()
    text = repr(cls(**{first: 2}))
    assert text.startswith(f"{cls.__name__}({first}=2, ")
    assert [
        part.split("=")[0]
        for part in text[len(cls.__name__) + 1:-1].split(", ")
    ] == list(cls.FIELDS)

    assert list(cls().snapshot()) == snapshot_keys
