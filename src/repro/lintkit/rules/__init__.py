"""The iplint rule registry.

Each rule lives in its own module; :func:`default_rules` instantiates
the set the CLI, the CI job and the regression test run over
``src/repro``.  Adding a rule means: implement a
:class:`~repro.lintkit.engine.Rule` subclass, import it here, append it
to :data:`RULE_CLASSES`, and give it passing/failing fixtures in
``tests/test_lintkit_rules.py``.

The syntactic rules listed here judge one AST node at a time; the
flow rules from :mod:`repro.lintkit.flow.rules` (CFG and call-graph
backed, ``telemetry-guard`` among them) complete the default set.
Every rule id has exactly one implementing class.
"""

from __future__ import annotations

from ..engine import Rule
from .clock import ClockDisciplineRule
from .determinism import DeterminismRule
from .exceptions import ExceptionDisciplineRule
from .ispp import IsppSafetyRule
from .layering import DeviceLayeringRule
from .telemetry import CounterNamingRule

__all__ = [
    "RULE_CLASSES",
    "ClockDisciplineRule",
    "CounterNamingRule",
    "DeterminismRule",
    "DeviceLayeringRule",
    "ExceptionDisciplineRule",
    "IsppSafetyRule",
    "default_rules",
    "rule_by_id",
]

#: Every syntactic rule class, in report order.
RULE_CLASSES: tuple[type[Rule], ...] = (
    IsppSafetyRule,
    DeviceLayeringRule,
    DeterminismRule,
    CounterNamingRule,
    ExceptionDisciplineRule,
    ClockDisciplineRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of the default rule set: syntactic, then flow."""
    from ..flow.rules import FLOW_RULE_CLASSES  # late: avoids a cycle

    return [cls() for cls in RULE_CLASSES + FLOW_RULE_CLASSES]


def rule_by_id(rule_id: str) -> Rule:
    """Instantiate one rule by its id (raises KeyError when unknown)."""
    for rule in default_rules():
        if rule.id == rule_id:
            return rule
    raise KeyError(f"no lint rule with id {rule_id!r}")
