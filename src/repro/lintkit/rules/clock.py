"""clock-discipline: simulated time advances through the Clock API.

The storage-program refactor gave simulated time a single owner: every
engine-side latency charge goes through
:meth:`repro.storage.clock.Clock.advance` (or ``sync_to``), which is
what lets the same code run standalone (scalar clock) or under the
hostq event scheduler (deferred clock).  A raw ``obj.clock += latency``
— the pattern the refactor removed — silently bypasses that ownership:
standalone it happens to work, but under a scheduler the charge is
lost, so the bug only shows up as impossibly fast transactions in
``--level txn`` runs.

This rule bans direct arithmetic mutation of a ``.clock`` attribute:

* any augmented assignment (``+=``, ``-=``, ...) targeting ``<expr>.clock``;
* a plain assignment to ``<expr>.clock`` whose right-hand side is
  arithmetic (a ``BinOp``/``UnaryOp`` or a bare numeric constant),
  i.e. manual clock math rather than object wiring.

Assigning a clock *object* (``self.clock = ScalarClock()``-style
wiring, or aliasing ``a.clock = b.clock``) stays legal.  The clock
implementations in :mod:`repro.storage.clock` keep their time in
``_now``, not in a ``.clock`` attribute, so they need no waiver.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Finding, LintModule, Rule


def _is_arithmetic(value: ast.expr) -> bool:
    """Whether an assigned value is clock math rather than wiring."""
    if isinstance(value, (ast.BinOp, ast.UnaryOp)):
        return True
    return isinstance(value, ast.Constant) and isinstance(
        value.value, (int, float)
    )


class ClockDisciplineRule(Rule):
    """Ban raw arithmetic on ``.clock`` attributes."""

    id = "clock-discipline"
    description = (
        "simulated time moves via Clock.advance()/sync_to(); direct "
        "`obj.clock += ...` arithmetic bypasses the clock owner and "
        "breaks scheduled execution"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Flag arithmetic mutation of ``.clock`` attributes."""
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr == "clock"
            ):
                yield self.finding(
                    module, node,
                    "mutates a `.clock` attribute arithmetically; charge "
                    "latency via Clock.advance() (or sync_to) so the same "
                    "code runs under the hostq scheduler",
                )
            elif isinstance(node, ast.Assign) and _is_arithmetic(node.value):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "clock"
                    ):
                        yield self.finding(
                            module, node,
                            "assigns computed time to a `.clock` attribute; "
                            "move the arithmetic into Clock.advance()/"
                            "sync_to() so time has one owner",
                        )
                        break
