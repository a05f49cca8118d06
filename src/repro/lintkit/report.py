"""Finding reporters: human-readable text and a stable JSON schema.

The JSON document is the machine interface (CI annotations, tooling)::

    {
      "version": 1,
      "findings": [
        {"path": "...", "line": 3, "col": 9, "rule": "ispp-safety",
         "severity": "error", "message": "..."},
        ...
      ],
      "summary": {"total": 2, "by_rule": {"ispp-safety": 2},
                  "files": 1}
    }

Every finding is an error.  The human reporter prints one
``path:line:col: error[rule] message`` line per finding (editor/CI
clickable) plus a one-line summary.

The GitHub reporter emits one workflow command per finding
(``::error file=...,line=...,col=...,title=...::message``) so findings
surface as inline PR annotations; non-command lines in its output are
plain log text GitHub ignores.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from .engine import Finding

__all__ = ["json_report", "render_github", "render_json", "render_text"]

#: Bumped whenever a field is added/renamed in the JSON shape.
JSON_SCHEMA_VERSION = 1


def json_report(findings: Sequence[Finding]) -> dict:
    """The JSON document as a plain dict (see module docstring)."""
    by_rule = Counter(finding.rule for finding in findings)
    return {
        "version": JSON_SCHEMA_VERSION,
        "findings": [finding.to_dict() for finding in findings],
        "summary": {
            "total": len(findings),
            "by_rule": dict(sorted(by_rule.items())),
            "files": len({finding.path for finding in findings}),
        },
    }


def render_json(findings: Sequence[Finding]) -> str:
    """Serialized JSON report (two-space indent, trailing newline)."""
    return json.dumps(json_report(findings), indent=2) + "\n"


def _escape_github(text: str, *, property_value: bool = False) -> str:
    """Escape data for a GitHub Actions workflow command."""
    escaped = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if property_value:
        escaped = escaped.replace(":", "%3A").replace(",", "%2C")
    return escaped


def render_github(findings: Sequence[Finding]) -> str:
    """GitHub Actions annotations, one workflow command per finding."""
    if not findings:
        return "iplint: no findings\n"
    lines = []
    for finding in findings:
        properties = ",".join(
            (
                f"file={_escape_github(finding.path, property_value=True)}",
                f"line={finding.line}",
                f"col={finding.col}",
                f"title={_escape_github('iplint ' + finding.rule, property_value=True)}",
            )
        )
        lines.append(
            f"::error {properties}::{_escape_github(finding.message)}"
        )
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"iplint: {len(findings)} {noun}")
    return "\n".join(lines) + "\n"


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report; empty input renders the all-clear line."""
    if not findings:
        return "iplint: no findings\n"
    lines = [str(finding) for finding in findings]
    by_rule = Counter(finding.rule for finding in findings)
    breakdown = ", ".join(
        f"{rule}: {count}" for rule, count in sorted(by_rule.items())
    )
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"iplint: {len(findings)} {noun} ({breakdown})")
    return "\n".join(lines) + "\n"
