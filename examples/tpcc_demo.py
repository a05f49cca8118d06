#!/usr/bin/env python3
"""TPC-C on the flash emulator: the paper's Table 9 experiment, live.

Loads a scaled TPC-C database, runs the five-transaction mix against
the 16-chip SLC flash emulator twice — without IPA and with the [2x3]
scheme the paper derives for TPC-C — and prints the comparison rows the
paper reports: GC overhead per host write, I/O latencies, and
transactional throughput.

Run:  python examples/tpcc_demo.py  [txns]
"""

import sys

from repro.core import NxMScheme, SCHEME_OFF
from repro.session import SessionConfig, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCC, TPCCConfig


def run(scheme, transactions):
    engine = open_session(SessionConfig(
        logical_pages=1600, scheme=scheme, buffer_pages=1600,
        engine=dict(log_capacity_bytes=4_000_000),
    )).engine
    workload = TPCC(TPCCConfig(customers_per_district=150, items=1000))
    driver = load_scaled(engine, workload, buffer_fraction=0.20)
    result = driver.run(transactions)
    return result


def main():
    transactions = int(sys.argv[1]) if len(sys.argv) > 1 else 3000
    print(f"TPC-C, {transactions} transactions, 20% buffer, eager eviction")
    print("running [0x0] baseline ...")
    base = run(SCHEME_OFF, transactions)
    print("running [2x3] IPA ...")
    ipa = run(NxMScheme(2, 3), transactions)

    def pct(a, b):
        return f"{100 * (b - a) / a:+.1f}%" if a else "n/a"

    rows = [
        ("host writes", base.device["host_writes"], ipa.device["host_writes"]),
        ("in-place appends", base.device["delta_writes"], ipa.device["delta_writes"]),
        ("GC page migrations", base.device["gc_page_migrations"],
         ipa.device["gc_page_migrations"]),
        ("GC erases", base.device["gc_erases"], ipa.device["gc_erases"]),
        ("erases per host write", round(base.device["erases_per_host_write"], 4),
         round(ipa.device["erases_per_host_write"], 4)),
        ("mean read I/O [us]", round(base.device["mean_read_latency_us"], 1),
         round(ipa.device["mean_read_latency_us"], 1)),
        ("throughput [tps]", round(base.throughput_tps), round(ipa.throughput_tps)),
    ]
    print(f"\n{'metric':26} {'[0x0]':>12} {'[2x3]':>12} {'change':>9}")
    for label, a, b in rows:
        print(f"{label:26} {a:>12,} {b:>12,} {pct(a, b):>9}")
    print("\ntransaction mix:", dict(sorted(ipa.mix.items())))
    print("response times [ms]:",
          {k: round(v, 3) for k, v in sorted(ipa.response_time_ms.items())})


if __name__ == "__main__":
    main()
