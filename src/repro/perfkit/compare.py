"""The count gate behind ``repro bench --compare``.

Two result files compare on one axis with one contract: **counts** are
simulated invariants and must match *exactly*.  A count drift means the
simulation itself changed (different victim choices, different event
order, different bytes) — that is never a timing matter and always a
finding.

A bench present in the baseline but missing from the current run is a
finding (coverage must not silently shrink); benches only present in
the current run are reported as informational additions.
"""

from __future__ import annotations

from ..analysis.report import format_table

__all__ = ["compare_results", "render_comparison"]


def _drifted(base: dict, entry: dict) -> list[str]:
    """Invariant names whose values differ (or exist on one side only)."""
    return sorted(
        key
        for key in set(base["counts"]) | set(entry["counts"])
        if base["counts"].get(key) != entry["counts"].get(key)
    )


def compare_results(baseline: dict, current: dict) -> list[str]:
    """Every count-gate finding, as human-readable strings (empty = pass)."""
    problems: list[str] = []
    current_benches = current.get("benches", {})
    for name, base in baseline.get("benches", {}).items():
        entry = current_benches.get(name)
        if entry is None:
            problems.append(f"{name}: missing from the current run")
            continue
        for key in _drifted(base, entry):
            problems.append(
                f"{name}: count {key!r} drifted "
                f"{base['counts'].get(key)} -> {entry['counts'].get(key)} "
                "(simulated invariants must match exactly)"
            )
    return problems


def render_comparison(baseline: dict, current: dict) -> tuple[str, list[str]]:
    """The comparison table plus the finding list."""
    problems = compare_results(baseline, current)
    base_benches = baseline.get("benches", {})
    current_benches = current.get("benches", {})
    rows = []
    for name, base in base_benches.items():
        entry = current_benches.get(name)
        if entry is None:
            rows.append([name, len(base["counts"]), "-", "MISSING"])
            continue
        drifted = len(_drifted(base, entry))
        rows.append([
            name, len(base["counts"]), drifted, "COUNTS" if drifted else "ok",
        ])
    for name, entry in current_benches.items():
        if name not in base_benches:
            rows.append([name, len(entry["counts"]), "-", "new"])
    table = format_table(
        ["bench", "invariants", "drifted", "status"],
        rows,
        title="bench comparison (simulated counts, exact)",
    )
    return table, problems
