"""The bench runner: replay the registry, emit canonical ``BENCH_*.json``.

For every bench the runner makes two passes, each a fresh
``bench.replay()`` from scratch.  The two passes' counts must be
identical — a bench whose counts drift between passes is
nondeterministic and fails the run immediately, which is the whole
point: the simulation must replay exactly.

The emitted payload is the repo's canonical count-pin format::

    {
      "schema": "repro-perfkit/2",
      "repro_version": "1.1.0",
      "annotations": {"...": "..."},
      "benches": {
        "<name>": {
          "description": "...",
          "counts": {"<invariant>": <exact value>, ...}
        }
      }
    }

``counts`` compare exactly across machines and Python versions (see
:mod:`repro.perfkit.compare`).  Nothing here reads the wall clock:
schema ``/1`` also carried per-bench timings gated at ±30 % against a
one-sample baseline, which could not tell a regression from host noise;
wall-clock claims belong to ``bench/`` (ten seeds, spread-aware bounds).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .. import __version__
from ..analysis.report import format_table
from ..errors import ReproError
from .registry import Bench, all_benches, get_bench

__all__ = [
    "SCHEMA",
    "load_results",
    "render_report",
    "run_bench",
    "run_benchmarks",
    "write_results",
]

SCHEMA = "repro-perfkit/2"


def run_bench(bench: Bench) -> dict:
    """Replay one bench twice; returns its counts, which must agree."""
    counts = bench.replay()
    replayed = bench.replay()
    if replayed != counts:
        raise ReproError(
            f"bench {bench.name!r} is nondeterministic: counts changed "
            f"between passes ({counts} != {replayed})"
        )
    return counts


def run_benchmarks(
    names: Iterable[str] | None = None,
    annotations: dict[str, str] | None = None,
) -> dict:
    """Run the selected benches (default: all); returns the payload."""
    benches = (
        [get_bench(name) for name in names] if names else all_benches()
    )
    if not benches:
        raise ReproError("no benches registered")
    return {
        "schema": SCHEMA,
        "repro_version": __version__,
        "annotations": dict(annotations or {}),
        "benches": {
            bench.name: {
                "description": bench.description,
                "counts": run_bench(bench),
            }
            for bench in benches
        },
    }


def render_report(payload: dict) -> str:
    """The human-readable table ``repro bench`` prints."""
    rows = [
        [name, len(result["counts"]), result["description"]]
        for name, result in payload["benches"].items()
    ]
    return format_table(
        ["bench", "invariants", "description"],
        rows,
        title=f"repro bench ({len(rows)} benches, counts replayed twice)",
    )


def write_results(payload: dict, path: str | Path) -> Path:
    """Persist one payload as canonical (sorted, indented) JSON."""
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def load_results(path: str | Path) -> dict:
    """Read a ``BENCH_*.json`` payload, checking the schema marker."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read bench results {path}: {exc}") from exc
    if payload.get("schema") != SCHEMA:
        raise ReproError(
            f"{path} is not a perfkit result file "
            f"(schema {payload.get('schema')!r}, expected {SCHEMA!r})"
        )
    return payload
