"""Unit tests for counters, gauges, histograms, and the registry."""

import pytest

from repro.telemetry.metrics import (
    APPEND_BUCKETS,
    LATENCY_BUCKETS_US,
    SIZE_BUCKETS_BYTES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounterAndGauge:
    def test_counter_inc_and_reset(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        counter.reset()
        assert counter.value == 0

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(2.0)
        gauge.dec(4.0)
        assert gauge.value == 8.0
        gauge.reset()
        assert gauge.value == 0.0


class TestHistogram:
    def test_observe_le_semantics(self):
        hist = Histogram("h", buckets=(10, 20, 30))
        hist.observe(10)   # exactly on a bound -> that bucket (le)
        hist.observe(10.5)
        hist.observe(31)   # overflow bucket
        assert hist.counts == [1, 1, 0, 1]
        assert hist.count == 3
        assert hist.sum == pytest.approx(51.5)

    def test_cumulative_counts_end_at_inf(self):
        hist = Histogram("h", buckets=(1, 2))
        for value in (0.5, 1.5, 5.0):
            hist.observe(value)
        cumulative = hist.cumulative_counts()
        assert cumulative == [(1.0, 1), (2.0, 2), (float("inf"), 3)]

    def test_quantile_is_bucketed(self):
        hist = Histogram("h", buckets=(10, 20, 40))
        for value in (1, 2, 3, 15, 35):
            hist.observe(value)
        assert hist.quantile(0.5) == 10
        assert hist.quantile(0.99) == 40
        assert hist.quantile(0.0) == 10

    def test_quantile_overflow_and_empty(self):
        hist = Histogram("h", buckets=(10,))
        assert hist.quantile(0.5) == 0.0
        hist.observe(100)
        assert hist.quantile(1.0) == 10
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_mean(self):
        hist = Histogram("h", buckets=(10,))
        assert hist.mean == 0.0
        hist.observe(4)
        hist.observe(6)
        assert hist.mean == 5.0

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(10, 5))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(10, 10))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_reset_drops_samples(self):
        hist = Histogram("h", buckets=(10,))
        hist.observe(3)
        hist.reset()
        assert hist.count == 0 and hist.sum == 0.0
        assert hist.counts == [0, 0]

    def test_default_bucket_families_are_increasing(self):
        for family in (LATENCY_BUCKETS_US, SIZE_BUCKETS_BYTES, APPEND_BUCKETS):
            assert list(family) == sorted(family)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")
        with pytest.raises(TypeError):
            registry.histogram("a")

    def test_contains_get_iter(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        assert "a" in registry and "b" not in registry
        assert registry.get("a") is counter
        assert registry.get("b") is None
        assert list(registry) == [counter]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(10,)).observe(3)
        snap = registry.snapshot()
        assert snap["c"] == 2
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1
        assert snap["h"]["buckets"]["10.0"] == 1
        assert snap["h"]["buckets"]["inf"] == 1

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(10,)).observe(3)
        registry.reset()
        assert registry.get("c").value == 0
        assert registry.get("g").value == 0.0
        assert registry.get("h").count == 0
