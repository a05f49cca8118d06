#!/usr/bin/env python3
"""Cross-layer telemetry: trace a run, verify it, render latency CDFs.

Attaches a :class:`repro.telemetry.Telemetry` to a TPC-B testbed,
streams every cross-layer event (flash commands, GC decisions, flush
outcomes, buffer traffic) to a JSONL file, then demonstrates the three
consumption paths:

1. replay the trace and check it aggregates to the exact device/IPA
   counters (the stream is complete, not a sample);
2. render a host-latency CDF straight from a telemetry histogram;
3. dump the metrics registry in Prometheus text format.

Run:  python examples/telemetry_demo.py [txns]
"""

import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro.analysis import CDF
from repro.core import NxMScheme
from repro.telemetry import Telemetry
from repro.telemetry.export import (
    JsonlTraceWriter,
    aggregate_trace,
    prometheus_text,
    read_jsonl_trace,
)
from repro.session import SessionConfig, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig

TXNS = int(sys.argv[1]) if len(sys.argv) > 1 else 2000


def main():
    telemetry = Telemetry()
    engine = open_session(SessionConfig(
        logical_pages=900, scheme=NxMScheme(2, 4), buffer_pages=900,
        telemetry=telemetry,
    )).engine
    workload = TPCB(TPCBConfig(accounts_per_branch=20_000))
    driver = load_scaled(engine, workload, buffer_fraction=0.25)
    telemetry.metrics.reset()  # drop the load phase's samples

    trace_path = Path(tempfile.mkdtemp()) / "tpcb.jsonl"
    print(f"running {TXNS} TPC-B transactions, tracing to {trace_path} ...")
    with JsonlTraceWriter(trace_path).attach(telemetry.events):
        driver.run(TXNS)

    events = read_jsonl_trace(trace_path)
    mix = Counter(event["event"] for event in events)
    print(f"  {len(events)} events: " + ", ".join(
        f"{name} x{count}" for name, count in mix.most_common()
    ))

    print("\nreplaying the trace against the run's counters ...")
    agg = aggregate_trace(events)
    device_snap = engine.device.stats.snapshot()
    ipa_snap = engine.ipa.stats.snapshot()
    mismatches = [
        key for key, value in agg.items()
        if value != device_snap.get(key, ipa_snap.get(key))
    ]
    print("  trace aggregates exactly to DeviceStats/IPAStats"
          if not mismatches else f"  MISMATCH on {mismatches}")

    print("\nhost write latency CDF (from the telemetry histogram):")
    cdf = CDF.from_histogram(telemetry.host_write_latency)
    for bound, percent in cdf.points([100, 200, 400, 800, 1600]):
        print(f"  <= {bound:5d} us : {percent:5.1f}%")

    telemetry.collect()  # refresh chip-busy / wear / buffer gauges
    dump = prometheus_text(telemetry.metrics)
    wanted = ("device_host_reads ", "ipa_ipa_flushes ", "gc_triggers_total ")
    print("\nPrometheus dump (excerpt of "
          f"{len(dump.splitlines())} lines):")
    for line in dump.splitlines():
        if line.startswith(wanted) or line.startswith("host_write_latency_us_count"):
            print(f"  {line}")


if __name__ == "__main__":
    main()
