"""Flow-sensitive analyses for iplint (DESIGN.md §13).

A rule that judges one AST node at a time needs nothing from here; the
rules that judge *paths* read these analyses from ``module.context``:

* :mod:`~repro.lintkit.flow.cfg` — per-function control-flow graphs
  with dominators, reaching definitions, and bounded path scans;
* :mod:`~repro.lintkit.flow.callgraph` — a conservative module-level
  call graph with re-export resolution;
* :class:`FlowContext` — one run's shared, lazily built analyses.

Import the analyses from their modules; this package exports only the
context.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from .callgraph import CallGraph, build_call_graph
from .cfg import CFG, build_cfg

if TYPE_CHECKING:
    from ..engine import LintModule

__all__ = ["FlowContext"]


class FlowContext:
    """Analyses shared by every rule within one lint run.

    Both are pure functions of the parsed sources, so a run computes
    each once: the project call graph on first access, and one CFG per
    scope node (shared between rules that inspect the same function).
    """

    def __init__(self, modules: list[LintModule]) -> None:
        self.modules = list(modules)
        self._cfgs: dict[int, CFG] = {}
        self._call_graph: CallGraph | None = None
        #: How many times the call graph was actually constructed —
        #: asserted to stay at 1 per run (build caching regression).
        self.call_graph_builds = 0

    @property
    def call_graph(self) -> CallGraph:
        """The project call graph, built once and memoized."""
        if self._call_graph is None:
            self._call_graph = build_call_graph(self.modules)
            self.call_graph_builds += 1
        return self._call_graph

    def cfg(self, scope: ast.AST) -> CFG:
        """The (memoized) CFG of one function/module scope."""
        cfg = self._cfgs.get(id(scope))
        if cfg is None:
            cfg = build_cfg(scope)
            self._cfgs[id(scope)] = cfg
        return cfg
