"""The bench registry: named, self-describing simulated-count pins.

A bench is one callable, ``replay()``: it builds its workload state —
devices, pools, request lists — from seeded :class:`random.Random`
instances and fixed sizes, drives the hot path under test over it, and
returns the bench's *simulated-count invariants* — deterministic
integers/floats (program counts, GC erases, event-loop totals, CRCs of
produced bytes) that must be byte-equal across passes, runs, machines
and Python versions.  The runner enforces the across-pass half of
that; CI (and tier-1) compare the rest against the committed baseline.

The counts pin the *simulation*: a hot-path optimization is checkable
because they must not move.  How fast the implementation runs is not
this package's business — ``bench/`` at the repo root measures that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ReproError

__all__ = ["Bench", "REGISTRY", "all_benches", "get_bench", "register"]


@dataclass(frozen=True)
class Bench:
    """One registered bench (see module docstring)."""

    name: str
    description: str
    replay: Callable[[], dict]


#: name -> Bench, in registration order (the report order).
REGISTRY: dict[str, Bench] = {}


def register(bench: Bench) -> Bench:
    """Add a bench to the registry; duplicate names are a bug."""
    if bench.name in REGISTRY:
        raise ReproError(f"bench {bench.name!r} registered twice")
    REGISTRY[bench.name] = bench
    return bench


def all_benches() -> list[Bench]:
    """Every registered bench, in registration order."""
    return list(REGISTRY.values())


def get_bench(name: str) -> Bench:
    """Look up one bench; unknown names raise :class:`ReproError`."""
    try:
        return REGISTRY[name]
    except KeyError as exc:
        raise ReproError(
            f"unknown bench {name!r}; choose from {', '.join(sorted(REGISTRY))}"
        ) from exc
