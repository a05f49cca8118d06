"""Acceptance tests: tracing a TPC-B run replays to the exact stats.

The ISSUE acceptance criterion: a TPC-B testbed run with JSONL tracing
enabled produces a replayable event stream whose aggregated counters
exactly match ``DeviceStats.snapshot()`` / ``IPAStats.snapshot()``, and
the Prometheus dump carries at least one latency histogram.
"""

import pytest

from repro.analysis.cdf import CDF
from repro.telemetry import Telemetry
from repro.telemetry.events import EVENT_BY_NAME
from repro.telemetry.export import (
    JsonlTraceWriter,
    aggregate_trace,
    csv_summary,
    prometheus_text,
    read_jsonl_trace,
)
from repro.session import SessionConfig, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One telemetry-enabled TPC-B run with JSONL tracing of the measured phase."""
    trace_path = tmp_path_factory.mktemp("telemetry") / "run.jsonl"
    telemetry = Telemetry()
    engine = open_session(SessionConfig(
        logical_pages=400, chips=4, buffer_pages=400, telemetry=telemetry,
    )).engine
    workload = TPCB(TPCBConfig(accounts_per_branch=2000))
    driver = load_scaled(engine, workload, buffer_fraction=0.3, seed=7)
    # The load phase ends with a stats reset; drop its metric samples
    # too so the trace and the registry cover exactly the measured run.
    telemetry.metrics.reset()
    with JsonlTraceWriter(trace_path).attach(telemetry.events):
        result = driver.run(400)
    return telemetry, engine, result, trace_path


class TestTraceReplayability:
    def test_aggregation_matches_snapshots_exactly(self, traced_run):
        telemetry, engine, result, trace_path = traced_run
        events = read_jsonl_trace(trace_path)
        assert events, "measured run must emit events"
        agg = aggregate_trace(events)
        device_snap = engine.device.stats.snapshot()
        ipa_snap = engine.ipa.stats.snapshot()
        for key, value in agg.items():
            expected = device_snap[key] if key in device_snap else ipa_snap[key]
            assert value == expected, f"{key}: trace={value} stats={expected}"

    def test_trace_covers_a_nontrivial_run(self, traced_run):
        _, engine, result, trace_path = traced_run
        assert result.transactions == 400
        agg = aggregate_trace(read_jsonl_trace(trace_path))
        assert agg["host_reads"] > 0
        assert agg["ipa_flushes"] + agg["oop_flushes"] > 0

    def test_every_event_reconstructs(self, traced_run):
        *_, trace_path = traced_run
        for data in read_jsonl_trace(trace_path):
            cls = EVENT_BY_NAME[data["event"]]
            event = cls(**{k: v for k, v in data.items() if k != "event"})
            assert event.to_dict() == data


class TestMetricsDump:
    def test_prometheus_has_latency_histogram(self, traced_run):
        telemetry, *_ = traced_run
        telemetry.collect()
        text = prometheus_text(telemetry.metrics)
        assert "# TYPE host_write_latency_us histogram" in text
        assert 'host_write_latency_us_bucket{le="+Inf"}' in text
        assert "host_write_latency_us_count" in text
        assert telemetry.host_write_latency.count > 0

    def test_device_counters_appear_next_to_histograms(self, traced_run):
        telemetry, engine, *_ = traced_run
        text = prometheus_text(telemetry.metrics)
        assert f"device_host_reads {engine.device.stats.host_reads}\n" in text
        assert f"ipa_ipa_flushes {engine.ipa.stats.ipa_flushes}\n" in text

    def test_collect_refreshes_gauges(self, traced_run):
        telemetry, engine, *_ = traced_run
        telemetry.collect()
        registry = telemetry.metrics
        assert registry.get("chip_0_busy_time_us").value > 0
        assert registry.get("wear_max_erase_count") is not None
        dirty = registry.get("buffer_dirty_fraction").value
        assert 0.0 <= dirty <= 1.0

    def test_csv_summary_carries_the_same_counters(self, traced_run):
        telemetry, engine, *_ = traced_run
        lines = csv_summary(telemetry.metrics).splitlines()
        assert f"device_host_reads,counter,{engine.device.stats.host_reads}" in lines


class TestHistogramToCDF:
    def test_latency_cdf_from_histogram(self, traced_run):
        telemetry, *_ = traced_run
        cdf = CDF.from_histogram(telemetry.host_write_latency)
        assert cdf.xs == sorted(cdf.xs)
        assert cdf.ys == sorted(cdf.ys)
        assert cdf.ys[-1] == 100.0
        assert cdf.at(cdf.xs[-1]) == 100.0

    def test_empty_histogram_gives_empty_cdf(self):
        telemetry = Telemetry()
        cdf = CDF.from_histogram(telemetry.host_read_latency)
        assert cdf.xs == [] and cdf.ys == []


class TestStatsFacade:
    def test_reset_idiom_keeps_registry_binding(self, traced_run):
        telemetry, engine, *_ = traced_run
        counter = telemetry.metrics.get("device_host_reads")
        engine.device.stats.__init__()
        assert telemetry.metrics.get("device_host_reads") is counter
        assert engine.device.stats.host_reads == 0
        engine.device.stats.host_reads += 3
        assert counter.value == 3

    def test_snapshot_includes_byte_counters(self):
        from repro.ftl.stats import DeviceStats

        snap = DeviceStats(
            bytes_host_read=10, bytes_page_written=20, bytes_delta_written=5
        ).snapshot()
        assert snap["bytes_host_read"] == 10
        assert snap["bytes_page_written"] == 20
        assert snap["bytes_delta_written"] == 5
