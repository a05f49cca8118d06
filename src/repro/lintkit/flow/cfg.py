"""Per-function control-flow graphs for the flow-sensitive lint pass.

:func:`build_cfg` lowers one function body (or a module's top-level
code) into basic blocks of statements connected by control-flow edges.
The builder covers the constructs the repro tree actually uses:

* ``if``/``elif``/``else`` — every branch gets its own entry block,
  synthesized even when the branch is empty;
* ``while``/``for`` with ``else``, ``break`` and ``continue``
  (``break`` skips the ``else`` clause, ``continue`` re-enters the
  header — the back edge is real, so "after" includes the next
  iteration);
* ``try``/``except``/``else``/``finally`` — conservatively: every
  block of the ``try`` suite may raise into every handler, all normal
  and handler exits funnel through the ``finally`` suite;
* ``with`` (linear), ``match`` (one arm per case), ``return``/``raise``
  (edges to the exit block, no fall-through);
* generator suspension points: a statement containing a ``yield`` or
  ``yield from`` *terminates its block*, so every yield is the last
  statement of some block and "post-yield" is plain reachability.

On top of the graph the module provides the analyses the flow rules
share: :func:`reaching_definitions` for function-local names (the
lock-ordering rule), and the statement-granular path scans
:func:`stmts_after` / :func:`stmts_before` ("what can run between A and
B without passing a blocker") used by the crash-window and
yield-discipline rules.

Nested function/class definitions are *not* descended into — each
scope gets its own CFG; the ``def`` statement itself is an ordinary
binding in the enclosing scope.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "BasicBlock",
    "CFG",
    "DefSite",
    "YieldPoint",
    "build_cfg",
    "own_nodes",
    "reaching_definitions",
    "stmts_after",
    "stmts_before",
    "yields_in_scope",
]

#: AST nodes opening a nested scope the builder must not descend into.
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _walk_scope(node: ast.AST) -> Iterable[ast.AST]:
    """``ast.walk`` confined to one scope (skips nested defs/lambdas)."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _NESTED_SCOPES):
                continue
            stack.append(child)


def _header_exprs(stmt: ast.stmt) -> list[ast.expr] | None:
    """The expressions a *compound* statement evaluates itself.

    The CFG records a compound statement (``if``, ``while``, ...) in
    the block where its header executes; the suites become separate
    statements in other blocks.  Analyses attributing work to the
    header must therefore look only at these expressions — ``None``
    means the statement is simple and owns its whole subtree.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs: list[ast.expr] = []
        for item in stmt.items:
            exprs.append(item.context_expr)
            if item.optional_vars is not None:
                exprs.append(item.optional_vars)
        return exprs
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.Try, *_NESTED_SCOPES)):
        return []
    return None


def own_nodes(stmt: ast.stmt) -> Iterable[ast.AST]:
    """AST nodes belonging to this statement *at its CFG position*.

    For simple statements: the whole subtree minus nested scopes.  For
    compound statements: only the header expressions (their suites are
    recorded as separate statements elsewhere in the graph).
    """
    headers = _header_exprs(stmt)
    roots: Iterable[ast.AST] = [stmt] if headers is None else headers
    for root in roots:
        yield from _walk_scope(root)


def yields_in_scope(stmt: ast.stmt) -> list[ast.expr]:
    """Yield/YieldFrom expressions this statement itself evaluates."""
    return [
        node
        for node in own_nodes(stmt)
        if isinstance(node, (ast.Yield, ast.YieldFrom))
    ]


class BasicBlock:
    """A straight-line run of statements with one entry and one exit."""

    __slots__ = ("index", "stmts", "succ", "pred")

    def __init__(self, index: int) -> None:
        self.index = index
        self.stmts: list[ast.stmt] = []
        self.succ: list["BasicBlock"] = []
        self.pred: list["BasicBlock"] = []


@dataclass(frozen=True)
class YieldPoint:
    """One generator suspension point (always the last stmt of a block).

    ``bound`` is True when the yielded value's completion is captured
    (``x = yield cmd`` / ``x = yield from prog()``); a *bare* yield
    discards what the driver sends back.
    """

    node: ast.expr
    stmt: ast.stmt
    block: BasicBlock
    bound: bool


@dataclass(frozen=True)
class DefSite:
    """One definition of a local name reaching-definitions tracks.

    ``value`` is the defining expression when the binding is a simple
    single-target assignment (``name = expr``), else ``None`` — an
    opaque definition (loop target, augmented assignment, parameter,
    unpacking) that analyses must treat as "could be anything".
    """

    name: str
    stmt: ast.stmt | None
    value: ast.expr | None


@dataclass
class CFG:
    """One scope's control-flow graph plus rule-facing indexes."""

    scope: ast.AST
    blocks: list[BasicBlock]
    entry: BasicBlock
    exit: BasicBlock
    yields: list[YieldPoint]
    #: id(stmt) -> (owning block, index within the block).
    position: dict[int, tuple[BasicBlock, int]]

    def block_of(self, stmt: ast.stmt) -> BasicBlock | None:
        """The block holding ``stmt`` (None for unrecorded statements)."""
        entry = self.position.get(id(stmt))
        return entry[0] if entry else None


class _Builder:
    """Recursive statement-list lowering shared by all scope kinds."""

    def __init__(self, scope: ast.AST) -> None:
        self.scope = scope
        self.blocks: list[BasicBlock] = []
        self.yields: list[YieldPoint] = []
        self.position: dict[int, tuple[BasicBlock, int]] = {}
        self.entry = self.new_block()
        self.exit = self.new_block()
        #: (continue target, break target) per enclosing loop.
        self.loops: list[tuple[BasicBlock, BasicBlock]] = []
        #: Handler/finally entry blocks exceptions may branch to.
        self.raise_targets: list[list[BasicBlock]] = []

    def new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    @staticmethod
    def link(src: BasicBlock | None, dst: BasicBlock) -> None:
        if src is not None and dst not in src.succ:
            src.succ.append(dst)
            dst.pred.append(src)

    # ------------------------------------------------------------------
    # Statement lowering
    # ------------------------------------------------------------------

    def add_stmt(self, block: BasicBlock, stmt: ast.stmt) -> BasicBlock:
        """Record one simple statement; splits the block after a yield."""
        block.stmts.append(stmt)
        self.position[id(stmt)] = (block, len(block.stmts) - 1)
        for target in self.raise_targets:
            for handler_entry in target:
                self.link(block, handler_entry)
        yields = yields_in_scope(stmt)
        if not yields:
            return block
        bound = self._binds_yield(stmt)
        for node in yields:
            self.yields.append(YieldPoint(node, stmt, block, bound))
        follow = self.new_block()
        self.link(block, follow)
        return follow

    @staticmethod
    def _binds_yield(stmt: ast.stmt) -> bool:
        """Whether the statement captures the yield's sent value."""
        value = getattr(stmt, "value", None)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and isinstance(
            value, (ast.Yield, ast.YieldFrom)
        ):
            return True
        if isinstance(stmt, ast.Expr) and isinstance(value, ast.NamedExpr):
            return isinstance(value.value, (ast.Yield, ast.YieldFrom))
        return False

    def build_body(
        self, body: Sequence[ast.stmt], block: BasicBlock | None
    ) -> BasicBlock | None:
        """Lower a suite starting in ``block``; returns the fall-through
        block (None when every path left the suite)."""
        for stmt in body:
            if block is None:
                # Unreachable trailing code: park it in a fresh block so
                # positions exist, but leave it disconnected.
                block = self.new_block()
            block = self.build_stmt(stmt, block)
        return block

    def build_stmt(self, stmt: ast.stmt, block: BasicBlock) -> BasicBlock | None:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, block)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, block)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, block)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            block = self.add_stmt(block, stmt)
            return self.build_body(stmt.body, block)
        if isinstance(stmt, ast.Match):
            return self._build_match(stmt, block)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            block = self.add_stmt(block, stmt)
            if block is not None:
                self.link(block, self.exit)
            return None
        if isinstance(stmt, ast.Break):
            block = self.add_stmt(block, stmt)
            if self.loops:
                self.link(block, self.loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            block = self.add_stmt(block, stmt)
            if self.loops:
                self.link(block, self.loops[-1][0])
            return None
        return self.add_stmt(block, stmt)

    def _build_if(self, stmt: ast.If, block: BasicBlock) -> BasicBlock:
        cond = self.add_stmt(block, stmt)
        true_entry = self.new_block()
        false_entry = self.new_block()
        self.link(cond, true_entry)
        self.link(cond, false_entry)
        body_end = self.build_body(stmt.body, true_entry)
        else_end = self.build_body(stmt.orelse, false_entry)
        join = self.new_block()
        self.link(body_end, join)
        self.link(else_end, join)
        return join

    def _build_loop(self, stmt: ast.stmt, block: BasicBlock) -> BasicBlock:
        header = self.new_block()
        self.link(block, header)
        header = self.add_stmt(header, stmt)
        body_entry = self.new_block()
        exit_entry = self.new_block()
        self.link(header, body_entry)
        self.link(header, exit_entry)
        join = self.new_block()
        self.loops.append((header, join))
        body_end = self.build_body(stmt.body, body_entry)
        self.loops.pop()
        self.link(body_end, header)  # back edge
        # The else suite runs only on normal exhaustion; break jumps
        # straight to the join.
        else_end = self.build_body(stmt.orelse, exit_entry)
        self.link(else_end, join)
        return join

    def _build_try(self, stmt: ast.Try, block: BasicBlock) -> BasicBlock:
        block = self.add_stmt(block, stmt)
        handler_entries = [self.new_block() for _ in stmt.handlers]
        final_entry = self.new_block() if stmt.finalbody else None
        targets = list(handler_entries)
        if final_entry is not None:
            targets.append(final_entry)
        body_entry = self.new_block()
        self.link(block, body_entry)
        self.raise_targets.append(targets)
        body_end = self.build_body(stmt.body, body_entry)
        else_end = self.build_body(stmt.orelse, body_end)
        self.raise_targets.pop()
        join = self.new_block()
        exits = [else_end]
        for handler, entry in zip(stmt.handlers, handler_entries):
            exits.append(self.build_body(handler.body, entry))
        if final_entry is not None:
            for end in exits:
                self.link(end, final_entry)
            final_end = self.build_body(stmt.finalbody, final_entry)
            # The finally suite also runs on the exceptional path that
            # re-raises past this statement.
            if final_end is not None:
                self.link(final_end, self.exit)
            self.link(final_end, join)
        else:
            for end in exits:
                self.link(end, join)
        return join

    def _build_match(self, stmt: ast.Match, block: BasicBlock) -> BasicBlock:
        subject = self.add_stmt(block, stmt)
        join = self.new_block()
        for case in stmt.cases:
            entry = self.new_block()
            self.link(subject, entry)
            self.link(self.build_body(case.body, entry), join)
        self.link(subject, join)  # no case matched
        return join


def build_cfg(scope: ast.AST) -> CFG:
    """Lower one scope (function, module, or statement list owner).

    ``scope`` is a ``FunctionDef``/``AsyncFunctionDef``, ``Module``, or
    any node with a ``body`` list of statements.
    """
    builder = _Builder(scope)
    body = scope.body if hasattr(scope, "body") else []
    end = builder.build_body(body, builder.entry)
    builder.link(end, builder.exit)
    return CFG(
        scope=scope,
        blocks=builder.blocks,
        entry=builder.entry,
        exit=builder.exit,
        yields=builder.yields,
        position=builder.position,
    )


# ----------------------------------------------------------------------
# Reaching definitions (function-local names)
# ----------------------------------------------------------------------

_UNKNOWN = DefSite("?", None, None)


def _definitions_of(stmt: ast.stmt) -> list[DefSite]:
    """The local-name definitions one statement performs."""
    defs: list[DefSite] = []

    def bind_target(target: ast.expr, value: ast.expr | None) -> None:
        if isinstance(target, ast.Name):
            defs.append(DefSite(target.id, stmt, value))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind_target(element, None)
        elif isinstance(target, ast.Starred):
            bind_target(target.value, None)
        # Attribute/subscript targets are not local bindings.

    if isinstance(stmt, ast.Assign):
        simple = len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name)
        for target in stmt.targets:
            bind_target(target, stmt.value if simple else None)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        bind_target(stmt.target, stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        bind_target(stmt.target, None)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        bind_target(stmt.target, None)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                bind_target(item.optional_vars, None)
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            name = (alias.asname or alias.name).split(".")[0]
            defs.append(DefSite(name, stmt, None))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defs.append(DefSite(stmt.name, stmt, None))
    # Walrus assignments anywhere in the statement's own expressions.
    for node in own_nodes(stmt):
        if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            defs.append(DefSite(node.target.id, stmt, node.value))
    return defs


def reaching_definitions(cfg: CFG) -> dict[int, dict[str, set[DefSite]]]:
    """Per-block IN sets: which definitions of each local name reach it.

    Parameters of a function scope reach the entry as opaque defs.
    Names never defined in the scope simply have no entry — callers
    treat "no reaching def" as not-provable.
    """
    gen: dict[int, dict[str, set[DefSite]]] = {}
    for block in cfg.blocks:
        current: dict[str, set[DefSite]] = {}
        for stmt in block.stmts:
            for site in _definitions_of(stmt):
                current[site.name] = {site}
        gen[block.index] = current

    seed: dict[str, set[DefSite]] = {}
    args = getattr(cfg.scope, "args", None)
    if args is not None:
        names = [a.arg for a in args.args + args.kwonlyargs + args.posonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        for name in names:
            seed[name] = {DefSite(name, None, None)}

    in_sets: dict[int, dict[str, set[DefSite]]] = {
        block.index: {} for block in cfg.blocks
    }
    in_sets[cfg.entry.index] = {k: set(v) for k, v in seed.items()}
    out_sets: dict[int, dict[str, set[DefSite]]] = {}

    def flow_out(index: int) -> dict[str, set[DefSite]]:
        merged = {k: set(v) for k, v in in_sets[index].items()}
        for name, sites in gen[index].items():
            merged[name] = set(sites)
        return merged

    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            out_sets[block.index] = flow_out(block.index)
        for block in cfg.blocks:
            if block is cfg.entry:
                continue
            merged: dict[str, set[DefSite]] = {}
            for pred in block.pred:
                for name, sites in out_sets.get(pred.index, {}).items():
                    merged.setdefault(name, set()).update(sites)
            if merged != in_sets[block.index]:
                in_sets[block.index] = merged
                changed = True
    return in_sets


# ----------------------------------------------------------------------
# Statement-granular path scans
# ----------------------------------------------------------------------


def _scan(
    cfg: CFG,
    sources: Iterable[ast.stmt],
    stoppers: Iterable[ast.stmt],
    forward: bool,
) -> set[int]:
    """Statement ids reachable from ``sources`` without crossing a
    stopper, walking ``succ`` (forward) or ``pred`` (backward).

    The sources themselves are not included; a stopper terminates its
    path *at* the stopper (the stopper is not reported either).
    """
    stop_ids = {id(s) for s in stoppers}
    reached: set[int] = set()
    #: Blocks whose full statement list was already scanned.
    visited: set[int] = set()
    queue: list[tuple[BasicBlock, int]] = []

    def scan_block(block: BasicBlock, start: int) -> None:
        """Scan statements from ``start``; enqueue neighbours if the
        scan runs off the end of the block without hitting a stopper."""
        indices = (
            range(start, len(block.stmts))
            if forward
            else range(start, -1, -1)
        )
        for i in indices:
            stmt = block.stmts[i]
            if id(stmt) in stop_ids:
                return
            reached.add(id(stmt))
        neighbours = block.succ if forward else block.pred
        for other in neighbours:
            if other.index not in visited:
                visited.add(other.index)
                queue.append((other, 0 if forward else len(other.stmts) - 1))

    for source in sources:
        entry = cfg.position.get(id(source))
        if entry is None:
            continue
        block, index = entry
        scan_block(block, index + 1 if forward else index - 1)
    while queue:
        block, start = queue.pop()
        scan_block(block, start)
    return reached


def stmts_after(
    cfg: CFG, sources: Iterable[ast.stmt], stoppers: Iterable[ast.stmt] = ()
) -> set[int]:
    """ids of statements on some path after a source, before a stopper."""
    return _scan(cfg, sources, stoppers, forward=True)


def stmts_before(
    cfg: CFG, sources: Iterable[ast.stmt], stoppers: Iterable[ast.stmt] = ()
) -> set[int]:
    """ids of statements on some path leading to a source, after any
    stopper (backward scan)."""
    return _scan(cfg, sources, stoppers, forward=False)
