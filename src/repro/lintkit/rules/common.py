"""Small AST helpers shared by the flow rules.

"Shared-state store" is the notion several rules agree on: an
assignment, augmented assignment, or deletion whose target is an
attribute or subscript rooted at ``self`` or a function parameter —
i.e. a mutation visible outside the function's own locals.  Stores to
bare local names never qualify; stores rooted at a name that is neither
local nor a parameter are *global* stores, which
:mod:`~repro.lintkit.rules.yield_discipline` bans outright inside
storage programs.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..flow.cfg import _walk_scope

__all__ = [
    "call_attr_name",
    "function_locals",
    "root_name",
    "scope_functions",
    "store_targets",
]


def root_name(node: ast.expr) -> str | None:
    """Leftmost ``Name`` of an attribute/subscript chain (else None)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def store_targets(stmt: ast.stmt) -> list[ast.expr]:
    """Targets a statement assigns to or deletes (flattened)."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets.extend(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets.append(stmt.target)
    elif isinstance(stmt, ast.Delete):
        targets.extend(stmt.targets)
    flat: list[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flat.extend(target.elts)
        else:
            flat.append(target)
    return flat


def function_locals(func: ast.AST) -> set[str]:
    """Names bound locally in a function scope (params included)."""
    names: set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in args.args + args.kwonlyargs + args.posonlyargs:
            names.add(arg.arg)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    for node in _walk_scope(func):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            names.difference_update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def call_attr_name(node: ast.Call) -> str | None:
    """The attribute name of an ``obj.attr(...)`` call (else None)."""
    return node.func.attr if isinstance(node.func, ast.Attribute) else None


def scope_functions(tree: ast.AST) -> Iterable[ast.AST]:
    """Every function definition in a module, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
