"""The iplint rule registry: one rule per invariant.

Each rule lives in its own module and subclasses
:class:`~repro.lintkit.engine.Rule`; :func:`default_rules` instantiates
the set the CLI, the CI job and the regression test run over
``src/repro``.  Adding a rule means: implement the subclass, append it
to :data:`RULES`, and give it passing/failing fixtures in the tests.

==========================  ===========================================
rule id                     invariant
==========================  ===========================================
``ispp-safety``             flash cells change only via ISPP primitives
``device-layering``         no concrete backend, by import or call chain
``determinism``             no wall clocks, no process-global RNG
``counter-naming``          metric names are ``{layer}_{noun}``
``exception-discipline``    no bare or swallowing blanket handlers
``clock-discipline``        simulated time moves via the Clock API
``yield-discipline``        storage programs stay resume-safe
``lock-ordering``           multi-LPN acquire loops iterate sorted LPNs
``crash-window``            no state mutation between data and mark
``telemetry-guard``         emits dominated by an ``.active`` check
==========================  ===========================================
"""

from __future__ import annotations

from ..engine import Rule
from .clock import ClockDisciplineRule
from .crash_window import CrashWindowRule
from .determinism import DeterminismRule
from .exceptions import ExceptionDisciplineRule
from .ispp import IsppSafetyRule
from .layering import DeviceLayeringRule
from .lock_order import LockOrderingRule
from .telemetry import CounterNamingRule
from .telemetry_guard import TelemetryGuardRule
from .yield_discipline import YieldDisciplineRule

__all__ = [
    "RULES",
    "ClockDisciplineRule",
    "CounterNamingRule",
    "CrashWindowRule",
    "DeterminismRule",
    "DeviceLayeringRule",
    "ExceptionDisciplineRule",
    "IsppSafetyRule",
    "LockOrderingRule",
    "TelemetryGuardRule",
    "YieldDisciplineRule",
    "default_rules",
    "rule_by_id",
]

#: Every rule class, in report order.
RULES: tuple[type[Rule], ...] = (
    IsppSafetyRule,
    DeviceLayeringRule,
    DeterminismRule,
    CounterNamingRule,
    ExceptionDisciplineRule,
    ClockDisciplineRule,
    YieldDisciplineRule,
    LockOrderingRule,
    CrashWindowRule,
    TelemetryGuardRule,
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
