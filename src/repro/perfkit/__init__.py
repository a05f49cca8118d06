"""repro.perfkit — the exact simulated-count gate.

``repro bench`` replays the stack's hot paths — ISPP page programming,
the delta codec + ECC, buffer-pool fetch/evict, WAL group commit,
NoFTL mapping/GC, the hostq event loop, and the two end-to-end load
tests — from fixed seeds and emits canonical ``BENCH_*.json`` results:
per-bench *simulated-count invariants* (program counts, GC erases,
event-loop totals, CRCs of produced bytes).  The counts pin the
simulation: they must be byte-equal across passes, machines and Python
versions, and :func:`compare_results` gates them against the committed
``BENCH_baseline.json`` in CI and in tier-1.

perfkit does not time anything.  Wall-clock questions go to ``bench/``
at the repo root (end to end and per layer, ten seeds, spread-aware
bounds); the paper's tables come from ``benchmarks/``.

Typical use::

    python -m repro bench --out BENCH_current.json
    python -m repro bench --compare BENCH_baseline.json BENCH_current.json

Programmatic::

    from repro.perfkit import run_benchmarks, compare_results
    payload = run_benchmarks()
    problems = compare_results(baseline_payload, payload)
"""

from .registry import REGISTRY, Bench, all_benches, get_bench, register
from .benches import register_default_benches
from .compare import compare_results, render_comparison
from .runner import (
    SCHEMA,
    load_results,
    render_report,
    run_bench,
    run_benchmarks,
    write_results,
)

__all__ = [
    "Bench",
    "REGISTRY",
    "SCHEMA",
    "all_benches",
    "compare_results",
    "get_bench",
    "load_results",
    "register",
    "register_default_benches",
    "render_comparison",
    "render_report",
    "run_bench",
    "run_benchmarks",
    "write_results",
]

if not REGISTRY:
    register_default_benches()
