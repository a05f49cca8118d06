"""The iplint rule registry: one rule per invariant.

Each rule lives in its own module and subclasses
:class:`~repro.lintkit.engine.Rule`; :func:`default_rules` instantiates
the set the CLI, the CI job and the regression test run over
``src/repro``.  Adding a rule means: implement the subclass, append it
to :data:`RULES`, and give it passing/failing fixtures and seeded
mutations of real code in the tests.

==========================  ===========================================
rule id                     invariant
==========================  ===========================================
``ispp-safety``             flash cells change only via ISPP primitives
``device-layering``         from the FTL, only device, region, stats
``determinism``             no wall clocks, no process-global RNG
``exception-discipline``    no bare or swallowing blanket handlers
``yield-discipline``        storage programs stay resume-safe
``lock-ordering``           multi-LPN acquire loops iterate sorted LPNs
``crash-window``            no state mutation between data and mark
==========================  ===========================================

A rule stays while it catches something tier-1 does not: each has
seeded mutations of real code in ``tests/test_lintkit_kill_matrix.py``
that it must fire on, and at least one of them survives every other
test.  Telemetry guards, metric names and clock arithmetic are checked
at run time instead (``tests/test_telemetry_overhead.py``,
``tests/test_metrics_reports.py``, the read-only engine clock).
"""

from __future__ import annotations

from ..engine import Rule
from .crash_window import CrashWindowRule
from .determinism import DeterminismRule
from .exceptions import ExceptionDisciplineRule
from .ispp import IsppSafetyRule
from .layering import DeviceLayeringRule
from .lock_order import LockOrderingRule
from .yield_discipline import YieldDisciplineRule

__all__ = [
    "RULES",
    "CrashWindowRule",
    "DeterminismRule",
    "DeviceLayeringRule",
    "ExceptionDisciplineRule",
    "IsppSafetyRule",
    "LockOrderingRule",
    "YieldDisciplineRule",
    "default_rules",
    "rule_by_id",
]

#: Every rule class, in report order.
RULES: tuple[type[Rule], ...] = (
    IsppSafetyRule,
    DeviceLayeringRule,
    DeterminismRule,
    ExceptionDisciplineRule,
    YieldDisciplineRule,
    LockOrderingRule,
    CrashWindowRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every rule."""
    return [cls() for cls in RULES]


def rule_by_id(rule_id: str) -> Rule:
    """Instantiate one rule by its id (raises KeyError when unknown)."""
    for cls in RULES:
        if cls.id == rule_id:
            return cls()
    raise KeyError(f"no lint rule with id {rule_id!r}")
