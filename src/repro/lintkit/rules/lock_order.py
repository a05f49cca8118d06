"""Flow rule: multi-LPN lock acquisition must iterate sorted LPNs.

The transaction executor takes per-LPN op locks with ``yield
_Acquire(lpn)``.  Deadlock freedom rests on one global convention:
whenever a program acquires *several* locks in a loop, the loop walks
the LPNs in ascending order, so no two programs ever hold locks in
opposite orders.  ``_rollback_steps`` is the canonical compliant shape::

    lpns = sorted({record.lpn for record in txn.undo} - ctx.held)
    for lpn in lpns:
        yield _Acquire(lpn)

The rule finds every ``for`` loop that yields an acquire sentinel and
demands its iterable be provably ascending: either a plain
``sorted(x)`` call, or a name whose **every** reaching definition at
the loop header is one.  Only the natural order counts: a ``key=`` or
a ``reverse=`` other than a literal ``False`` breaks the proof.  Reaching definitions (not
a same-line regex) is what lets the proof survive the assignment being
hoisted away from the loop — and what makes a re-assignment on *any*
path to the loop break the proof, which is exactly when a human
reviewer would want to look.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Finding, LintModule, Rule
from ..flow.cfg import CFG, _definitions_of, _walk_scope, reaching_definitions
from .common import scope_functions

__all__ = ["LockOrderingRule"]

#: Callee names that construct a lock-acquisition sentinel.
_ACQUIRE_NAMES = ("_Acquire", "Acquire")
#: Callee names that construct the matching release sentinel.
_RELEASE_NAMES = ("_Release", "Release")


def _is_sorted_call(node: ast.expr | None) -> bool:
    """Whether an expression is a plain, ascending ``sorted(x)`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
        and len(node.args) == 1
        and all(
            kw.arg == "reverse"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in node.keywords
        )
    )


def _sentinel_yields(
    body: Iterable[ast.stmt], names: tuple[str, ...]
) -> Iterator[ast.expr]:
    """Sentinel-constructing yields within a suite (own scope, any depth)."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in _walk_scope(stmt):
            if not isinstance(node, ast.Yield) or node.value is None:
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in names:
                yield node


def _sentinel_key(node: ast.expr) -> str:
    """Canonical text of a sentinel yield's argument (pairing key)."""
    call = node.value  # type: ignore[attr-defined]
    return ast.unparse(call.args[0]) if call.args else ""


class LockOrderingRule(Rule):
    """Acquire loops must iterate a provably ascending ``sorted(x)``."""

    id = "lock-ordering"
    description = (
        "loops that yield lock-acquire sentinels must iterate a "
        "plain sorted(x) sequence, proven by reaching definitions"
    )

    #: Only the host-side scheduler stack takes multi-LPN locks.
    packages = ("repro.hostq",)

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Inspect every acquire loop in every function of the module."""
        for func in scope_functions(module.tree):
            cfg = module.cfg(func)
            in_sets: dict | None = None
            for loop in self._acquire_loops(func):
                if _is_sorted_call(loop.iter):
                    continue
                if isinstance(loop.iter, ast.Name):
                    if in_sets is None:
                        in_sets = reaching_definitions(cfg)
                    if self._provably_sorted(cfg, in_sets, loop):
                        continue
                    yield self.finding(
                        module,
                        loop.iter,
                        f"lock-acquire loop iterates `{loop.iter.id}`, "
                        "which has a reaching definition that is not a "
                        "plain `sorted(x)`; unsorted multi-LPN acquisition "
                        "can deadlock",
                    )
                    continue
                yield self.finding(
                    module,
                    loop.iter,
                    "lock-acquire loop must iterate a plain `sorted(x)` or "
                    "a name every definition of which is one; "
                    "unsorted multi-LPN acquisition can deadlock",
                )

    @staticmethod
    def _acquire_loops(func: ast.AST) -> Iterator[ast.For]:
        """``for`` loops whose iterations *accumulate* locks.

        A loop only creates ordering risk when it acquires a lock some
        iteration and still holds it in the next one.  A loop that
        releases what it acquired within the same iteration (``yield
        _Acquire(lpn)`` ... ``yield _Release(lpn)``, the transaction
        op loop) holds at most one lock at a time and is exempt;
        pairing is by the sentinel's argument expression.
        """
        owner: dict[int, ast.For] = {}

        def visit(node: ast.AST, current: ast.For | None) -> None:
            if isinstance(node, ast.For):
                current = node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func:
                    return
            elif isinstance(node, (ast.ClassDef, ast.Lambda)):
                return
            if isinstance(node, ast.Yield) and current is not None:
                owner[id(node)] = current
            for child in ast.iter_child_nodes(node):
                visit(child, current)

        visit(func, None)
        body = getattr(func, "body", [])
        releases: dict[ast.For, set[str]] = {}
        for point in _sentinel_yields(body, _RELEASE_NAMES):
            loop = owner.get(id(point))
            if loop is not None:
                releases.setdefault(loop, set()).add(_sentinel_key(point))
        flagged: list[ast.For] = []
        for point in _sentinel_yields(body, _ACQUIRE_NAMES):
            loop = owner.get(id(point))
            if loop is None or loop in flagged:
                continue
            if _sentinel_key(point) in releases.get(loop, set()):
                continue  # acquire/release paired within the iteration
            flagged.append(loop)
        yield from flagged

    @staticmethod
    def _provably_sorted(cfg: CFG, in_sets: dict, loop: ast.For) -> bool:
        """Every definition of the loop iterable reaching the loop is
        a plain ``sorted(x)`` call."""
        name = loop.iter.id  # type: ignore[union-attr]
        block = cfg.block_of(loop)
        if block is None:
            return False
        live = {
            defname: set(sites)
            for defname, sites in in_sets.get(block.index, {}).items()
        }
        # Fold in definitions earlier in the same block.
        position = cfg.position[id(loop)][1]
        for stmt in block.stmts[:position]:
            for site in _definitions_of(stmt):
                live[site.name] = {site}
        sites = live.get(name)
        if not sites:
            return False
        return all(_is_sorted_call(site.value) for site in sites)
