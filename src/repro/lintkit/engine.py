"""The iplint rule engine: findings, rules, suppressions, the runner.

``iplint`` is the repo's domain linter: a small AST-visitor framework
whose rules machine-check the invariants the codebase is built on —
the ISPP charge-increase rule, the device-layer protocol boundary,
run determinism, and telemetry discipline (see DESIGN.md §9).

The engine is deliberately tiny:

* :class:`Finding` — one diagnostic (rule id, location, message);
* :class:`Rule` — a per-rule class contributing an AST check over one
  :class:`LintModule`;
* :class:`LintModule` — a parsed source file plus the dotted module
  name rules use to decide applicability (layer boundaries);
* :func:`run_lint` — walk paths, parse, apply rules, drop suppressed
  findings, return the sorted remainder.

Suppressions are inline comments, narrowest scope wins::

    page.data[0] = 0  # iplint: disable=ispp-safety
    # iplint: disable-file=determinism   (anywhere in the file)

A suppression names one or more comma-separated rule ids, or ``all``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "LintModule",
    "PATH_EXEMPTIONS",
    "Rule",
    "Suppressions",
    "iter_python_files",
    "load_module",
    "module_name_for",
    "run_lint",
]

_SUPPRESS_RE = re.compile(r"#\s*iplint:\s*(disable|disable-file)=([A-Za-z0-9_,\s-]+)")

#: Rule id -> module prefixes where that rule is waived by design.
#:
#: Unlike inline suppressions (which mark one surprising line), a path
#: exemption records an *architectural* decision: the named component's
#: purpose conflicts with the rule.  The crash harness is the example —
#: its job is to catch anything a crash-recovery cycle throws and
#: report it as a divergence rather than die, so its blanket handlers
#: are the product, not an accident.
PATH_EXEMPTIONS: dict[str, tuple[str, ...]] = {
    "exception-discipline": ("repro.crashkit.harness",),
}


def _path_exempted(module: "LintModule", rule_id: str) -> bool:
    """Whether a module is exempted from a rule by PATH_EXEMPTIONS."""
    return any(
        module.module == prefix or module.module.startswith(prefix + ".")
        for prefix in PATH_EXEMPTIONS.get(rule_id, ())
    )


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def to_dict(self) -> dict:
        """JSON-reporter shape (stable schema, see report module)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )


@dataclass
class Suppressions:
    """Inline ``# iplint: disable=...`` directives of one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)

    @classmethod
    def scan(cls, source: str) -> "Suppressions":
        """Collect the directives from raw source text."""
        sup = cls()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            kind, spec = match.groups()
            rules = {part.strip() for part in spec.split(",") if part.strip()}
            if kind == "disable-file":
                sup.file_wide |= rules
            else:
                sup.by_line.setdefault(lineno, set()).update(rules)
        return sup

    def hides(self, finding: Finding) -> bool:
        """Whether a finding is silenced by a directive."""
        return any(
            "all" in rules or finding.rule in rules
            for rules in (self.file_wide, self.by_line.get(finding.line, ()))
        )


@dataclass
class LintModule:
    """One parsed source file handed to every rule."""

    path: Path
    module: str
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @property
    def display_path(self) -> str:
        return str(self.path)

    def in_package(self, *packages: str) -> bool:
        """Whether the module lives in (or under) any named package."""
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`id` / :attr:`description` (and optionally
    :attr:`severity`) and implement :meth:`check`, yielding
    :class:`Finding` objects.  :meth:`finding` builds one with the
    rule's identity filled in.
    """

    id: str = "rule"
    description: str = ""
    severity: str = "error"

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
            severity=self.severity,
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
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return LintModule(
        path=path,
        module=module if module is not None else module_name_for(path, root),
        source=source,
        tree=tree,
        suppressions=Suppressions.scan(source),
    )


def lint_module(module: LintModule, rules: Sequence[Rule]) -> list[Finding]:
    """Apply every rule to one parsed module, honouring suppressions."""
    findings = [
        finding
        for rule in rules
        for finding in rule.check(module)
        if not module.suppressions.hides(finding)
        and not _path_exempted(module, finding.rule)
    ]
    findings.sort()
    return findings


def run_lint(
    paths: Iterable[str | Path],
    rules: Sequence[Rule] | None = None,
    root: str | Path | None = None,
) -> list[Finding]:
    """Lint files/directories with the given rules (default: all).

    Returns every unsuppressed finding sorted by location.  All modules
    are parsed up front so flow rules share one analysis context (one call-graph
    build per run).  The imports of the rule set and the flow layer
    live here (not module top) so the engine stays importable from the
    rule modules without a cycle.
    """
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    root_path = Path(root) if root is not None else None
    modules = [
        load_module(path, root_path)
        for path in iter_python_files(Path(p) for p in paths)
    ]
    from .flow.base import FlowContext, FlowRule

    flow_rules = [rule for rule in rules if isinstance(rule, FlowRule)]
    if flow_rules:
        context = FlowContext(modules)
        for rule in flow_rules:
            rule.bind(context)
    findings: list[Finding] = []
    for module in modules:
        findings.extend(lint_module(module, rules))
    findings.sort()
    return findings
