"""repro.lintkit — ``iplint``, the repo's domain-invariant linter.

A small AST-based static-analysis pass that machine-checks the
invariants this codebase rests on (DESIGN.md §9, §13), one rule per
invariant:

* **ispp-safety** — flash cell buffers are only touched inside
  ``repro.flash``; hosts use accessors and program/write_delta;
* **device-layering** — above the device layer only the
  :class:`~repro.ftl.device.FlashDevice` protocol is imported, and no
  call chain reaches a concrete controller;
* **determinism** — no wall clocks, no process-global ``random.*``;
* **counter-naming** — metric names follow ``{layer}_{noun}``;
* **exception-discipline** — no bare/blind ``except``;
* **clock-discipline** — simulated time moves via the Clock API;
* **yield-discipline**, **lock-ordering**, **crash-window** and
  **telemetry-guard** (every event emit is dominated by an
  ``events.active`` check) — judged over the CFGs and the call graph of
  :mod:`repro.lintkit.flow`.

Every rule has one shape (:class:`Rule`) and the whole set always runs;
the only way to exempt code is an entry in
:data:`~repro.lintkit.engine.PATH_EXEMPTIONS`.

Run it as ``repro lint [--format json|github] [paths...]``
(CI does), or programmatically::

    from repro.lintkit import run_lint

    findings = run_lint(["src/repro"])
    assert not findings, findings
"""

from __future__ import annotations

from .engine import (
    Finding,
    LintModule,
    Rule,
    iter_python_files,
    lint_module,
    load_module,
    module_name_for,
    run_lint,
)
from .flow import FlowContext
from .report import json_report, render_github, render_json, render_text
from .rules import RULES, default_rules, rule_by_id

__all__ = [
    "Finding",
    "LintModule",
    "Rule",
    "FlowContext",
    "RULES",
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
