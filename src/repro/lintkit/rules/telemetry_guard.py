"""Flow rule: telemetry emits must be *dominated* by an ``.active`` check.

The telemetry bus contract (DESIGN.md §9) is that a disabled bus costs
nothing: every ``.emit(...)`` call sits behind an ``if ...active:``
guard so the event tuple is never even built on the cold path.

"Behind a guard" is a dominance property, not a line-span one (an emit
*after* a guarded block, or after a bail-out ``return``, sits on lines
a syntactic check misjudges), so the rule states the contract exactly:
the basic block holding the emit statement must be **dominated** by a branch edge that implies
the bus is active.  Because the CFG gives every branch outcome its own
synthetic entry block, all the idioms reduce to plain dominance::

    if self.events.active:          # emit dominated by the true edge
        self.events.emit(...)

    if not self.events.active:      # bail-out: code after the return
        return                      # is dominated by the false edge
    self.events.emit(...)

    while bus.active and budget:    # loop guards work the same way
        bus.emit(...)

Compound tests are evaluated structurally: the true edge of ``a.active
and cheap()`` implies active; the false edge of ``not a.active or
done`` does not (``done`` alone can take it).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Finding, LintModule, Rule
from ..flow.cfg import CFG, own_nodes
from .common import scope_functions

__all__ = ["TelemetryGuardRule", "implies_active"]


def _mentions_active(test: ast.expr) -> bool:
    """Whether an atomic test reads an ``active`` flag."""
    return (isinstance(test, ast.Attribute) and test.attr == "active") or (
        isinstance(test, ast.Name) and test.id == "active"
    )


def implies_active(test: ast.expr, outcome: bool) -> bool:
    """Whether taking the ``outcome`` edge of ``test`` proves activity.

    Structural evaluation over ``not``/``and``/``or``: the true edge of
    a conjunction proves every conjunct; the false edge of a
    disjunction refutes every disjunct.
    """
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return implies_active(test.operand, not outcome)
    if isinstance(test, ast.BoolOp):
        if isinstance(test.op, ast.And):
            if outcome:
                return any(implies_active(v, True) for v in test.values)
            # The false edge only proves that *some* conjunct failed.
            return False
        if outcome:
            # The true edge only proves that *some* disjunct held.
            return all(implies_active(v, True) for v in test.values)
        return any(implies_active(v, False) for v in test.values)
    return outcome and _mentions_active(test)


def _emit_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """``something.emit(...)`` calls a statement itself evaluates."""
    for node in own_nodes(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        ):
            yield node


class TelemetryGuardRule(Rule):
    """Every emit block must be dominated by an active-implying edge."""

    id = "telemetry-guard"
    description = (
        "telemetry emit sites must be dominated by a branch that "
        "proves the event bus is active"
    )

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Check module top-level, class bodies, and every function."""
        scopes: list[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        )
        scopes.extend(scope_functions(module.tree))
        for scope in scopes:
            yield from self._check_scope(module, module.context.cfg(scope))
        yield from self._check_lambdas(module)

    def _check_scope(self, module: LintModule, cfg: CFG) -> Iterator[Finding]:
        guard_blocks = []
        for branch in cfg.branches:
            if implies_active(branch.test, True):
                guard_blocks.append(branch.true_entry)
            if implies_active(branch.test, False):
                guard_blocks.append(branch.false_entry)
        for block in cfg.blocks:
            for stmt in block.stmts:
                for call in _emit_calls(stmt):
                    if any(cfg.dominates(g, block) for g in guard_blocks):
                        continue
                    yield self.finding(
                        module,
                        call,
                        "telemetry emit is not dominated by an `.active` "
                        "check; the disabled-bus path would still build "
                        "and send the event",
                    )

    def _check_lambdas(self, module: LintModule) -> Iterator[Finding]:
        """Emits inside lambdas can never be dominance-guarded."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Lambda):
                continue
            for call in ast.walk(node.body):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "emit"
                ):
                    yield self.finding(
                        module,
                        call,
                        "telemetry emit inside a lambda cannot be guarded "
                        "by an `.active` check; hoist it into a guarded "
                        "statement",
                    )
