"""Flow-sensitive analysis layer for iplint (DESIGN.md §13).

The syntactic rules in :mod:`repro.lintkit.rules` judge one AST node
at a time; this package adds the machinery to judge *paths*:

* :mod:`~repro.lintkit.flow.cfg` — per-function control-flow graphs
  with dominators, reaching definitions, and bounded path scans;
* :mod:`~repro.lintkit.flow.callgraph` — a conservative module-level
  call graph with re-export resolution;
* :mod:`~repro.lintkit.flow.base` — the shared per-run
  :class:`FlowContext` (cached CFGs, one call-graph build per run) and
  the :class:`FlowRule` base class;
* :mod:`~repro.lintkit.flow.rules` — the five flow rules.
"""

from __future__ import annotations

from .base import FlowContext, FlowRule
from .callgraph import CallGraph, CallSite, Definition, build_call_graph
from .cfg import (
    CFG,
    BasicBlock,
    Branch,
    DefSite,
    YieldPoint,
    build_cfg,
    dominators,
    reaching_definitions,
    stmts_after,
    stmts_before,
    yields_in_scope,
)
from .rules import FLOW_RULE_CLASSES

__all__ = [
    "BasicBlock",
    "Branch",
    "CFG",
    "CallGraph",
    "CallSite",
    "DefSite",
    "Definition",
    "FLOW_RULE_CLASSES",
    "FlowContext",
    "FlowRule",
    "YieldPoint",
    "build_call_graph",
    "build_cfg",
    "dominators",
    "reaching_definitions",
    "stmts_after",
    "stmts_before",
    "yields_in_scope",
]
