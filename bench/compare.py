#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``: A (before) and B (after).

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians and
quartiles and applies the metric's direction and bound from
BENCHMARK.json.  A pair whose own inter-quartile spread exceeds the
bound is ``unresolved``, not ``unchanged``: the runs cannot tell.  Exits
1 on a regression, on more failed operations, or on an incorrect run;
2 on files that cannot be compared.  ``better`` here is one comparison,
not a claimed gain — README.md has the ten-pair rule for that.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def refuse(message: str):
    print(f"compare: {message}", file=sys.stderr)
    sys.exit(2)


def load(path: str) -> dict:
    results = json.loads(Path(path).read_text())
    if results.get("smoke"):
        refuse(f"{path} is a --smoke result; smoke sizes measure nothing")
    return results


def summary(entry: dict) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of a metric's samples."""
    samples = entry.get("samples", [entry["value"]])
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    first, _, third = statistics.quantiles(samples, n=4)
    return first, statistics.median(samples), third


def verdict(before, after, better: str, bound: float) -> str:
    (a_first, a_median, a_third), (b_first, b_median, b_third) = before, after
    if before == after:
        return "identical"
    spread = max(
        (a_third - a_first) / abs(a_median) if a_median else 0.0,
        (b_third - b_first) / abs(b_median) if b_median else 0.0,
    )
    if spread > bound:
        return "unresolved"
    change = (b_median - a_median) / abs(a_median) if a_median else 0.0
    gain = change if better == "higher" else -change
    if gain < -bound:
        return "REGRESSION"
    return "better" if gain > bound else "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        refuse("usage: python3 bench/compare.py A.json B.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = load(argv[0]), load(argv[1])
    status = 0
    for name in (workload["name"] for workload in spec["workloads"]):
        a, b = before["workloads"].get(name), after["workloads"].get(name)
        if a is None or b is None:
            print(f"== {name}: not in both files, skipped")
            continue
        if a["trace"] or b["trace"]:
            print(f"== {name}: --trace 1 result, per-layer metrics are not compared")
            continue
        print(f"== {name}")
        for side, result in (("A", a), ("B", b)):
            if not result["correct"]:
                print(f"   {side} failed its output checks")
                status = 1
        a_failed = a["failed"] / a["attempted"]
        b_failed = b["failed"] / b["attempted"]
        if b_failed > a_failed:
            print(f"   failed operations rose: {a_failed:.6f} -> {b_failed:.6f}")
            status = 1
        for metric in spec["end_to_end"]:
            key = metric["name"]
            first, second = summary(a["metrics"][key]), summary(b["metrics"][key])
            outcome = verdict(first, second, metric["better"], metric["bound"])
            if outcome == "REGRESSION":
                status = 1
            print(
                f"   {key:<30} A {first[1]:>11.5g} [{first[0]:.5g}, {first[2]:.5g}]"
                f"  B {second[1]:>11.5g} [{second[0]:.5g}, {second[2]:.5g}]"
                f"  {metric['unit']}, {metric['better']} is better,"
                f" bound {metric['bound']:.0%}: {outcome}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
