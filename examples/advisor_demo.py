#!/usr/bin/env python3
"""The IPA advisor: schemes from a workload profile (paper Section 8.4).

Records the update-size profile of a live TPC-B run (the advisor's
input is the DB log / flush statistics), asks the advisor for a scheme
per optimization goal, then *validates* the recommendation by re-running
the workload under the recommended scheme and comparing the measured
IPA fraction against the advisor's prediction.

Run:  python examples/advisor_demo.py
"""

from repro.analysis import UpdateSizeCollector
from repro.core import IPAAdvisor, SCHEME_OFF
from repro.flash import CellType
from repro.session import SessionConfig, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig

import sys

TXNS = int(sys.argv[1]) if len(sys.argv) > 1 else 4000


def profile_run(scheme):
    engine = open_session(SessionConfig(
        logical_pages=900, scheme=scheme, buffer_pages=900,
        engine=dict(log_capacity_bytes=1_500_000),
    )).engine
    collector = UpdateSizeCollector()
    engine.add_flush_observer(collector)
    workload = TPCB(TPCBConfig(accounts_per_branch=20_000))
    driver = load_scaled(engine, workload, buffer_fraction=0.25)
    collector.net_sizes.clear()
    collector.gross_sizes.clear()
    driver.run(TXNS)
    return engine, collector


def main():
    print("phase 1: profiling TPC-B under [0x0] (no IPA) ...")
    __, collector = profile_run(SCHEME_OFF)
    print(f"  {len(collector)} update I/Os profiled")

    advisor = IPAAdvisor.from_collector(collector, cell_type=CellType.SLC)
    print("\nphase 2: advisor recommendations (space budget 5%):")
    recommendations = advisor.recommend_all(space_budget=0.05)
    for goal, rec in recommendations.items():
        print(f"  {goal:10} -> {rec}")

    chosen = recommendations["balanced"]
    print(f"\nphase 3: validating the 'balanced' pick {chosen.scheme} ...")
    engine, __ = profile_run(chosen.scheme)
    measured = engine.ipa.stats.ipa_fraction
    print(f"  predicted IPA fraction: {chosen.expected_ipa_fraction * 100:5.1f}%")
    print(f"  measured  IPA fraction: {measured * 100:5.1f}%")
    print(f"  erases: {engine.device.stats.gc_erases}, "
          f"space overhead: {chosen.space_overhead * 100:.1f}% per page")
    error = abs(measured - chosen.expected_ipa_fraction)
    print(f"  prediction error: {error * 100:.1f} percentage points")


if __name__ == "__main__":
    main()
