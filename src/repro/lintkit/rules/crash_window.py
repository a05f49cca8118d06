"""Flow rule: no shared-state mutation inside a crash window.

The write-path protocol is *data first, commit mark second*: a
delta/page program lands the payload, and only the subsequent OOB mark
program makes it durable-visible to recovery.  Between those two device
calls the system is in its **crash window** — a power cut leaves the
data page written but unmarked, and recovery must be able to pretend
the write never happened.  Any in-memory mapping-table or stats
mutation performed inside the window breaks that pretence: the process
state says "written" while durable state says "not yet".

The rule flags every shared-state store S for which both hold on some
path of the function's CFG:

* a data-program call reaches S without an intervening mark call, and
* S reaches a mark call without an intervening data call.

The two stopper sets are what make loops behave: in a GC migration
loop, a stats bump after this iteration's mark call is *outside* the
window even though the back edge makes it "reachable" from the data
call of the next iteration.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Finding, LintModule, Rule
from ..flow.cfg import CFG, own_nodes, stmts_after, stmts_before
from .common import call_attr_name, root_name, scope_functions, store_targets

__all__ = ["CrashWindowRule"]

#: Method names that program payload data onto the device.
DATA_CALLS = frozenset(
    {"write", "write_delta", "program", "program_torn", "append"}
)
#: Method names that program the commit mark (OOB metadata).
MARK_CALLS = frozenset({"write_oob", "program_oob", "program_oob_torn"})
#: Receiver names the device sits behind in this tree.
DEVICE_RECEIVERS = frozenset({"device", "mem", "memory", "flash", "dev"})


def _device_calls(stmt: ast.stmt, names: frozenset[str]) -> bool:
    """Whether a statement itself performs one of the named device calls."""
    for node in own_nodes(stmt):
        if not isinstance(node, ast.Call):
            continue
        attr = call_attr_name(node)
        if attr not in names:
            continue
        receiver = node.func.value  # type: ignore[union-attr]
        base = (
            receiver.id
            if isinstance(receiver, ast.Name)
            else receiver.attr if isinstance(receiver, ast.Attribute) else None
        )
        if base in DEVICE_RECEIVERS:
            return True
    return False


class CrashWindowRule(Rule):
    """Data program → commit mark intervals must not mutate state."""

    id = "crash-window"
    description = (
        "no mapping/stats mutation between a data program and its "
        "commit-mark OOB program on any path"
    )

    #: The layers that own write paths with commit-mark protocols.
    packages = ("repro.core", "repro.ftl", "repro.storage")

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Scan every function that performs both halves of the protocol."""
        for func in scope_functions(module.tree):
            cfg = module.context.cfg(func)
            yield from self._check_function(module, func, cfg)

    def _check_function(
        self, module: LintModule, func: ast.AST, cfg: CFG
    ) -> Iterator[Finding]:
        data_stmts = []
        mark_stmts = []
        for block in cfg.blocks:
            for stmt in block.stmts:
                if _device_calls(stmt, DATA_CALLS):
                    data_stmts.append(stmt)
                if _device_calls(stmt, MARK_CALLS):
                    mark_stmts.append(stmt)
        if not data_stmts or not mark_stmts:
            return
        after_data = stmts_after(cfg, data_stmts, stoppers=mark_stmts)
        before_mark = stmts_before(cfg, mark_stmts, stoppers=data_stmts)
        window = after_data & before_mark
        shared_roots = {"self", "cls"}
        args = getattr(func, "args", None)
        if args is not None:
            for arg in args.args + args.kwonlyargs + args.posonlyargs:
                shared_roots.add(arg.arg)
        for block in cfg.blocks:
            for stmt in block.stmts:
                if id(stmt) not in window:
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
                        f"state rooted at `{root}` is mutated inside the "
                        "crash window (after the data program, before the "
                        "commit mark); a crash here desynchronises memory "
                        "from durable state",
                    )
