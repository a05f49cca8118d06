"""Flow rule: storage programs must stay resume-safe.

A storage program is a generator that yields
:class:`~repro.storage.program.DeviceCommand` objects (or the hostq
lock sentinels) and may be suspended, interleaved with other clients,
and resumed by the scheduler at every yield.  Three things break that
contract:

* **a yield inside an ``except`` or ``finally`` suite** — the program
  would suspend while unwinding, and a driver that drops it mid-unwind
  leaves cleanup half-run;
* **a store to module-global state** — two interleaved instances of
  the program would race on it;
* **a mutation of ``self``/parameter-reachable state after a *bare*
  yield** — ``yield cmd`` discards the completion the driver sends
  back, so the program cannot know whether the command succeeded when
  it mutates shared state on resume.  The sanctioned pattern binds the
  completion first (``latency = yield cmd``), which is how
  ``fetch_program``/``_evict_program`` install frames and bump stats.
  ``yield from sub_program(...)`` is *not* a suspension hazard for the
  code after it: delegation returns only once the sub-program ran to
  completion.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Finding, LintModule, Rule
from ..flow.cfg import CFG, _walk_scope, stmts_after
from .common import function_locals, root_name, scope_functions, store_targets

__all__ = ["YieldDisciplineRule"]

#: Call names whose yielded result marks a generator as a storage
#: program even when the function name lacks the ``_program`` suffix.
_COMMAND_CALLS = ("DeviceCommand", "log_force_command", "_Acquire", "_Release")


def _call_name(node: ast.expr) -> str | None:
    """The simple name of a call's callee (else None)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_storage_program(func: ast.AST, cfg: CFG) -> bool:
    """Whether a generator follows the storage-program protocol."""
    if not cfg.yields:
        return False
    name = getattr(func, "name", "")
    if name.endswith("_program"):
        return True
    for point in cfg.yields:
        value = getattr(point.node, "value", None)
        called = _call_name(value) if value is not None else None
        if called is None:
            continue
        if called in _COMMAND_CALLS or called.endswith("_command"):
            return True
        if isinstance(point.node, ast.YieldFrom) and called.endswith("_program"):
            return True
    return False


def _yields_in_suite(body: Iterable[ast.stmt]) -> Iterator[ast.expr]:
    """Yield expressions inside a suite, own scope only."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in _walk_scope(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                yield node


class YieldDisciplineRule(Rule):
    """No unwinding yields, global stores, or post-bare-yield mutation."""

    id = "yield-discipline"
    description = (
        "storage programs must not yield while unwinding, touch module "
        "globals, or mutate shared state after a result-discarding yield"
    )

    #: Packages whose generators are held to the program protocol.
    packages = ("repro.storage", "repro.hostq")

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Apply all three sub-checks to every storage program."""
        for func in scope_functions(module.tree):
            cfg = module.context.cfg(func)
            if not _is_storage_program(func, cfg):
                continue
            yield from self._check_unwinding_yields(module, func)
            yield from self._check_global_stores(module, func, cfg)
            yield from self._check_post_yield_stores(module, func, cfg)

    def _check_unwinding_yields(
        self, module: LintModule, func: ast.AST
    ) -> Iterator[Finding]:
        """Flag yields placed inside except/finally suites."""
        for node in _walk_scope(func):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                for point in _yields_in_suite(handler.body):
                    yield self.finding(
                        module,
                        point,
                        "storage program yields inside an `except` suite; "
                        "a suspended unwind cannot be resumed safely",
                    )
            for point in _yields_in_suite(node.finalbody):
                yield self.finding(
                    module,
                    point,
                    "storage program yields inside a `finally` suite; "
                    "cleanup must run to completion without suspending",
                )

    def _check_global_stores(
        self, module: LintModule, func: ast.AST, cfg: CFG
    ) -> Iterator[Finding]:
        """Flag stores to names/objects outside the function's locals."""
        local_names = function_locals(func)
        for block in cfg.blocks:
            for stmt in block.stmts:
                for target in store_targets(stmt):
                    root = root_name(target)
                    if root is None or root in local_names:
                        continue
                    yield self.finding(
                        module,
                        target,
                        f"storage program mutates module-level state "
                        f"`{root}`; interleaved program instances would "
                        "race on it",
                    )

    def _check_post_yield_stores(
        self, module: LintModule, func: ast.AST, cfg: CFG
    ) -> Iterator[Finding]:
        """Flag shared-state stores reachable from a bare yield."""
        args = getattr(func, "args", None)
        shared_roots = {"self", "cls"}
        if args is not None:
            for arg in args.args + args.kwonlyargs + args.posonlyargs:
                shared_roots.add(arg.arg)
        bare = [
            point.stmt
            for point in cfg.yields
            if isinstance(point.node, ast.Yield) and not point.bound
        ]
        if not bare:
            return
        all_yield_stmts = {point.stmt for point in cfg.yields}
        reachable = stmts_after(cfg, bare, stoppers=all_yield_stmts)
        for block in cfg.blocks:
            for stmt in block.stmts:
                if id(stmt) not in reachable:
                    continue
                for target in store_targets(stmt):
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    root = root_name(target)
                    if root not in shared_roots:
                        continue
                    yield self.finding(
                        module,
                        target,
                        f"shared state rooted at `{root}` is mutated after "
                        "a result-discarding yield; bind the completion "
                        "(`result = yield cmd`) before mutating",
                    )
