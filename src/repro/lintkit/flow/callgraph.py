"""Module-level call graph over one lint run's parsed modules.

The graph is deliberately *static and conservative-but-incomplete*: it
resolves the call shapes the layering rules need — plain names bound by
``def``/``import``, attribute calls on imported module aliases,
``self.method(...)`` within a class, and re-export chains
(``from repro.ftl import X`` where ``repro.ftl/__init__`` itself
imports ``X`` from a submodule, relative imports included).  Calls it
cannot resolve (arbitrary attribute chains, dynamic dispatch through
protocol objects) produce no edge; the device-layering rule's call-chain
check therefore under-approximates reachability and never flags on
guesswork.

Built once per lint run and cached on the
:class:`~repro.lintkit.flow.FlowContext`, so every rule (and every
module's check) shares one graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from ..engine import LintModule, in_package

__all__ = [
    "CallGraph",
    "CallSite",
    "Definition",
    "build_call_graph",
    "resolve_relative",
]


def resolve_relative(module: LintModule, node: ast.ImportFrom) -> str:
    """Absolute dotted path of an ``ImportFrom`` target.

    ``level`` counts leading dots: one dot is the current package, each
    further dot climbs one package.  A package ``__init__``'s dotted
    name already *is* the package, so its first dot drops nothing; a
    plain module's own name is not a package level and goes first.
    Mirrors ``importlib._bootstrap``'s resolution, minus error handling
    we do not need for linting.
    """
    if node.level == 0:
        return node.module or ""
    parts = module.module.split(".")
    drop = node.level - (module.path.name == "__init__.py")
    base = parts[: len(parts) - drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


@dataclass(frozen=True)
class Definition:
    """One function or class definition the graph can land on."""

    module: str
    qualname: str
    node: ast.AST

    @property
    def key(self) -> str:
        """Stable node identity (``module:qualname``)."""
        return f"{self.module}:{self.qualname}"


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: ``caller`` invokes ``callee`` at ``node``."""

    caller: str
    callee: str
    node: ast.Call


@dataclass
class _ModuleInfo:
    """Per-module symbol tables the resolver consults."""

    module: LintModule
    #: local name -> Definition (top-level defs; methods as Class.name).
    defs: dict[str, Definition] = field(default_factory=dict)
    #: local name -> (source module, symbol or None for module imports).
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)


class CallGraph:
    """Resolved definitions and call edges over a set of modules."""

    def __init__(self) -> None:
        #: Definition key -> Definition.
        self.definitions: dict[str, Definition] = {}
        #: Caller key -> outgoing call sites.
        self.edges: dict[str, list[CallSite]] = {}

    def add_edge(self, site: CallSite) -> None:
        """Record one call edge."""
        self.edges.setdefault(site.caller, []).append(site)

    def calls_from(self, key: str) -> list[CallSite]:
        """Outgoing edges of one definition."""
        return self.edges.get(key, [])

    def definitions_in(self, module_name: str) -> list[Definition]:
        """Every definition of one module (classes and their methods)."""
        return [d for d in self.definitions.values() if d.module == module_name]

    def reach(
        self, start: str, skip_modules: Iterable[str] = ()
    ) -> dict[str, list[CallSite]]:
        """Every definition reachable from ``start``, with the chain.

        Returns ``{reached key: [edge, edge, ...]}`` — the list is one
        concrete call chain from ``start`` to the key.  Edges *into*
        modules matching a ``skip_modules`` prefix terminate traversal
        there (the callee is reported as reached, but not expanded):
        those are sanctioned composition roots.
        """
        skip = tuple(skip_modules)
        chains: dict[str, list[CallSite]] = {}
        queue: list[str] = [start]
        seen = {start}
        while queue:
            current = queue.pop()
            for site in self.calls_from(current):
                if site.callee in seen:
                    continue
                seen.add(site.callee)
                chains[site.callee] = chains.get(current, []) + [site]
                callee_module = site.callee.split(":", 1)[0]
                if site.callee in self.definitions and not in_package(
                    callee_module, skip
                ):
                    queue.append(site.callee)
        return chains


def _collect_info(module: LintModule) -> _ModuleInfo:
    info = _ModuleInfo(module)
    for stmt in module.tree.body:
        _collect_stmt(info, stmt)
    return info


def _collect_stmt(info: _ModuleInfo, stmt: ast.stmt) -> None:
    module_name = info.module.module
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        definition = Definition(module_name, stmt.name, stmt)
        info.defs[stmt.name] = definition
    elif isinstance(stmt, ast.ClassDef):
        definition = Definition(module_name, stmt.name, stmt)
        info.defs[stmt.name] = definition
        for member in stmt.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = Definition(module_name, f"{stmt.name}.{member.name}", member)
                info.defs[f"{stmt.name}.{member.name}"] = method
    elif isinstance(stmt, ast.Import):
        for alias in stmt.names:
            info.imports[alias.asname or alias.name.split(".")[0]] = (
                alias.name,
                None,
            )
    elif isinstance(stmt, ast.ImportFrom):
        origin = resolve_relative(info.module, stmt)
        for alias in stmt.names:
            if alias.name == "*":
                continue
            info.imports[alias.asname or alias.name] = (origin, alias.name)
    elif isinstance(stmt, (ast.If, ast.Try)):
        # TYPE_CHECKING blocks and guarded imports still bind names.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                _collect_stmt(info, child)


class _Resolver:
    """Name -> definition resolution across the module set."""

    def __init__(self, infos: dict[str, _ModuleInfo]) -> None:
        self.infos = infos

    def resolve_symbol(
        self, module_name: str, symbol: str, _guard: frozenset = frozenset()
    ) -> str | None:
        """Definition key (or ``external:`` pseudo-key) of a symbol.

        Follows re-export chains through linted packages; returns
        ``None`` only for symbols that vanish into unparsed space with
        no module pedigree worth reporting.
        """
        if (module_name, symbol) in _guard:
            return None
        info = self.infos.get(module_name)
        if info is None:
            return f"external:{module_name}:{symbol}"
        if symbol in info.defs:
            return info.defs[symbol].key
        if symbol in info.imports:
            origin, original = info.imports[symbol]
            guard = _guard | {(module_name, symbol)}
            if original is None:
                return f"external:{origin}:"
            return self.resolve_symbol(origin, original, guard)
        return None


def build_call_graph(modules: Iterable[LintModule]) -> CallGraph:
    """Resolve definitions and call edges over the whole module set."""
    infos = {m.module: _collect_info(m) for m in modules}
    resolver = _Resolver(infos)
    graph = CallGraph()
    for info in infos.values():
        for definition in info.defs.values():
            graph.definitions[definition.key] = definition
    for info in infos.values():
        for definition in info.defs.values():
            if isinstance(definition.node, ast.ClassDef):
                continue  # methods carry their own keys
            _collect_edges(graph, resolver, info, definition)
    return graph


def _collect_edges(
    graph: CallGraph,
    resolver: _Resolver,
    info: _ModuleInfo,
    definition: Definition,
) -> None:
    enclosing_class = (
        definition.qualname.split(".")[0] if "." in definition.qualname else None
    )
    for node in ast.walk(definition.node):
        if not isinstance(node, ast.Call):
            continue
        callee = _resolve_call(resolver, info, node, enclosing_class)
        if callee is None:
            continue
        graph.add_edge(CallSite(caller=definition.key, callee=callee, node=node))


def _resolve_call(
    resolver: _Resolver,
    info: _ModuleInfo,
    node: ast.Call,
    enclosing_class: str | None,
) -> str | None:
    module_name = info.module.module
    func = node.func
    if isinstance(func, ast.Name):
        return resolver.resolve_symbol(module_name, func.id)
    if isinstance(func, ast.Attribute):
        # self.method(...) within a class body.
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and enclosing_class is not None
        ):
            return resolver.resolve_symbol(
                module_name, f"{enclosing_class}.{func.attr}"
            )
        dotted = _dotted_name(func.value)
        if dotted is None:
            return None
        root = dotted.split(".")[0]
        imported = info.imports.get(root)
        if imported is None:
            return None
        origin, original = imported
        if original is None:
            # ``import pkg.mod as alias`` / ``import pkg.mod``: the call
            # target lives in the dotted module path.
            target_module = origin
            rest = dotted.split(".")[1:]
            if rest:
                target_module = (
                    ".".join([origin] + rest)
                    if not origin.endswith("." + ".".join(rest))
                    else origin
                )
            return resolver.resolve_symbol(target_module, func.attr)
        # ``from pkg import mod`` then ``mod.attr(...)``.
        if len(dotted.split(".")) == 1:
            inner = resolver.resolve_symbol(origin, original)
            if inner is not None and inner.startswith("external:"):
                return f"external:{origin}.{original}:{func.attr}"
            # The imported symbol may itself be a module.
            candidate = f"{origin}.{original}"
            if candidate in resolver.infos:
                return resolver.resolve_symbol(candidate, func.attr)
        return None
    return None


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains as a dotted string (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
