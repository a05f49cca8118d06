"""repro.lintkit — ``iplint``, the repo's domain-invariant linter.

A small AST-based static-analysis pass that machine-checks the
invariants this codebase rests on (DESIGN.md §9, §13), one rule per
invariant:

* **ispp-safety** — flash cell buffers are only touched inside
  ``repro.flash``; hosts use accessors and program/write_delta;
* **device-layering** — above the device layer, code imports from
  ``repro.ftl`` only the :class:`~repro.ftl.device.FlashDevice`
  protocol, the region config and the stats, at any depth;
* **determinism** — no wall clocks, no process-global ``random.*``;
* **exception-discipline** — no bare/blind ``except``;
* **yield-discipline**, **lock-ordering** and **crash-window** — judged
  over the CFGs of :mod:`repro.lintkit.flow`.

Each rule catches seeded mutations of real code that the rest of the
test suite misses (``tests/test_lintkit_kill_matrix.py``).  Every rule
has one shape (:class:`Rule`), sees one module at a time, and the whole
set always runs; the only way to exempt code is an entry in
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
from .report import json_report, render_github, render_json, render_text
from .rules import RULES, default_rules, rule_by_id

__all__ = [
    "Finding",
    "LintModule",
    "Rule",
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
