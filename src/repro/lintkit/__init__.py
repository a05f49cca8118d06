"""repro.lintkit — ``iplint``, the repo's domain-invariant linter.

A small AST-based static-analysis pass that machine-checks the
invariants this codebase rests on (DESIGN.md §9):

* **ispp-safety** — flash cell buffers are only touched inside
  ``repro.flash``; hosts use accessors and program/write_delta;
* **device-layering** — above the device layer only the
  :class:`~repro.ftl.device.FlashDevice` protocol is imported, never a
  concrete controller;
* **determinism** — no wall clocks, no process-global ``random.*``;
* **counter-naming** — metric names follow ``{layer}_{noun}``;
* **exception-discipline** — no bare/blind ``except``.

The flow-sensitive layer (:mod:`repro.lintkit.flow`) adds the CFG- and
call-graph-backed rules — **yield-discipline**, **lock-ordering**,
**crash-window**, **transitive-layering**, and **telemetry-guard**
(every event emit is dominated by an ``events.active`` check;
DESIGN.md §13).  Each rule id has one implementation and the whole set
always runs.

Run it as ``repro lint [--format json|github] [paths...]``
(CI does), or programmatically::

    from repro.lintkit import run_lint

    findings = run_lint(["src/repro"])
    assert not findings, findings

Inline suppression: ``# iplint: disable=<rule-id>`` on the offending
line, ``# iplint: disable-file=<rule-id>`` anywhere for the file.
"""

from __future__ import annotations

from .engine import (
    Finding,
    LintModule,
    Rule,
    Suppressions,
    iter_python_files,
    lint_module,
    load_module,
    module_name_for,
    run_lint,
)
from .flow import FLOW_RULE_CLASSES, FlowContext, FlowRule
from .report import json_report, render_github, render_json, render_text
from .rules import RULE_CLASSES, default_rules, rule_by_id

__all__ = [
    "Finding",
    "LintModule",
    "Rule",
    "Suppressions",
    "FLOW_RULE_CLASSES",
    "FlowContext",
    "FlowRule",
    "RULE_CLASSES",
    "default_rules",
    "rule_by_id",
    "iter_python_files",
    "lint_module",
    "load_module",
    "module_name_for",
    "run_lint",
    "json_report",
    "render_github",
    "render_json",
    "render_text",
]
