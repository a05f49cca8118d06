"""The iplint rule engine: findings, rules, waivers, the runner.

``iplint`` is the repo's domain linter: a small AST-visitor framework
whose rules machine-check the invariants the codebase is built on —
the ISPP charge-increase rule, the device-layer protocol boundary,
run determinism, and telemetry discipline (see DESIGN.md §9).

The engine is deliberately tiny:

* :class:`Finding` — one diagnostic (rule id, location, message);
* :class:`Rule` — one invariant: an AST check over one
  :class:`LintModule`, optionally scoped to the packages it governs;
* :class:`LintModule` — a parsed source file, the dotted module name
  rules use to decide applicability, and the run's shared
  :class:`~repro.lintkit.flow.FlowContext` (CFGs, call graph);
* :data:`PATH_EXEMPTIONS` — the one waiver table;
* :func:`run_lint` — walk paths, parse, apply every rule to every
  module it governs and does not waive, return the sorted findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .flow import FlowContext

__all__ = [
    "Finding",
    "LintModule",
    "PATH_EXEMPTIONS",
    "Rule",
    "in_package",
    "iter_python_files",
    "load_module",
    "module_name_for",
    "run_lint",
]

#: Rule id -> module prefixes where that rule is waived by design.
#:
#: The only way to exempt code from a rule.  Each entry records an
#: *architectural* decision — the named component's purpose conflicts
#: with the rule — and ``tests/test_lintkit_exemptions.py`` fails when an
#: entry names a dead rule, a dead module, or hides no finding.
PATH_EXEMPTIONS: dict[str, tuple[str, ...]] = {
    # The flash layer owns the cells: ISPP programming is its job.
    "ispp-safety": ("repro.flash",),
    # Composition roots: the FTL defines the backends; the session
    # builds them by name, and the IPL replay builds its Table 2 device
    # with IPL-matched geometry.
    "device-layering": ("repro.ftl", "repro.ipl.ipa_replay", "repro.session"),
    # The crash harness catches anything a crash-recovery cycle throws
    # and reports it as a divergence: its blanket handlers are the
    # product, not an accident.
    "exception-discipline": ("repro.crashkit.harness",),
}


def in_package(name: str, packages: Iterable[str]) -> bool:
    """Whether dotted ``name`` is, or sits under, any of ``packages``."""
    return any(name == pkg or name.startswith(pkg + ".") for pkg in packages)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> dict:
        """JSON-reporter shape (stable schema, see report module)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": "error",
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: error[{self.rule}] {self.message}"


@dataclass
class LintModule:
    """One parsed source file handed to every rule."""

    path: Path
    module: str
    tree: ast.Module

    @property
    def display_path(self) -> str:
        return str(self.path)

    @cached_property
    def context(self) -> FlowContext:
        """The run's shared analyses.

        :func:`run_lint` sets one context on every module it loads; a
        module linted on its own builds a single-module one on first use.
        """
        from .flow import FlowContext  # the flow analyses import this module

        return FlowContext([self])


class Rule:
    """Base class of every lint rule: one rule id, one invariant.

    Subclasses set :attr:`id` / :attr:`description` and implement
    :meth:`check`, yielding :class:`Finding` objects; :meth:`finding`
    builds one with the rule's id filled in.  Analyses beyond one AST
    (CFGs, the project call graph) come from ``module.context``.
    """

    id: str = "rule"
    description: str = ""
    #: Packages the invariant governs; empty means every module.  Where
    #: the invariant holds is part of the rule; a module excused from
    #: it is a :data:`PATH_EXEMPTIONS` entry.
    packages: tuple[str, ...] = ()

    def check(self, module: LintModule) -> Iterable[Finding]:
        """Yield this rule's findings for one parsed module."""
        raise NotImplementedError

    def finding(self, module: LintModule, node: ast.AST, message: str) -> Finding:
        """A finding of this rule at ``node``'s location."""
        return Finding(
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


def module_name_for(path: Path, root: Path | None = None) -> str:
    """Dotted module name of a source file.

    Uses the path components after a ``src`` directory when one is on
    the path (the repo layout), else after ``root``, else the bare stem.
    """
    resolved = path.resolve()
    parts: Sequence[str] = resolved.with_suffix("").parts
    anchor: int | None = None
    if root is not None:
        root_parts = root.resolve().parts
        if parts[: len(root_parts)] == root_parts:
            anchor = len(root_parts)
    if anchor is None:
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "src":
                anchor = index + 1
                break
    if anchor is None:
        anchor = len(parts) - 1
    dotted = list(parts[anchor:])
    if dotted and dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted) if dotted else resolved.stem


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def load_module(
    path: Path, root: Path | None = None, module: str | None = None
) -> LintModule:
    """Parse one file into the structure rules consume.

    Raises :class:`SyntaxError` for unparseable source — a broken file
    must fail the lint run loudly, not slip through unchecked.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return LintModule(
        path=path,
        module=module if module is not None else module_name_for(path, root),
        tree=tree,
    )


def _governs(rule: Rule, module: LintModule) -> bool:
    """Whether ``rule`` applies to ``module``: in its scope, not waived."""
    return (
        not rule.packages or in_package(module.module, rule.packages)
    ) and not in_package(module.module, PATH_EXEMPTIONS.get(rule.id, ()))


def lint_module(module: LintModule, rules: Sequence[Rule]) -> list[Finding]:
    """Apply every rule that governs one parsed module."""
    findings = [
        finding
        for rule in rules
        if _governs(rule, module)
        for finding in rule.check(module)
    ]
    findings.sort()
    return findings


def run_lint(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    root: str | Path | None = None,
) -> list[Finding]:
    """Lint files/directories with the given rules (default: all).

    Returns every finding sorted by location.  All modules are parsed
    up front and share one analysis context (one call-graph build per
    run).  The rule set and the flow layer import this module, so their
    imports live here rather than at module top.
    """
    from .flow import FlowContext
    from .rules import default_rules

    if rules is None:
        rules = default_rules()
    root_path = Path(root) if root is not None else None
    modules = [
        load_module(path, root_path)
        for path in iter_python_files(Path(p) for p in paths)
    ]
    context = FlowContext(modules)
    findings: list[Finding] = []
    for module in modules:
        module.context = context
        findings.extend(lint_module(module, rules))
    findings.sort()
    return findings
