"""Registry of the flow-sensitive lint rules.

Five rules, each enforcing one invariant from DESIGN.md §13 over the
CFG/call-graph layer in :mod:`repro.lintkit.flow`:

========================  ============================================
rule id                   invariant
========================  ============================================
``yield-discipline``      storage programs stay resume-safe
``lock-ordering``         multi-LPN acquire loops iterate sorted LPNs
``crash-window``          no state mutation between data and mark
``telemetry-guard``       emits dominated by an ``.active`` check
``transitive-layering``   no call chain into concrete backends
========================  ============================================
"""

from __future__ import annotations

from .crash_window import CrashWindowRule
from .layering import TransitiveLayeringRule
from .lock_order import LockOrderingRule
from .telemetry_guard import TelemetryGuardRule
from .yield_discipline import YieldDisciplineRule

__all__ = [
    "CrashWindowRule",
    "FLOW_RULE_CLASSES",
    "LockOrderingRule",
    "TelemetryGuardRule",
    "TransitiveLayeringRule",
    "YieldDisciplineRule",
]

#: Every flow rule, in reporting order.
FLOW_RULE_CLASSES = (
    YieldDisciplineRule,
    LockOrderingRule,
    CrashWindowRule,
    TelemetryGuardRule,
    TransitiveLayeringRule,
)
