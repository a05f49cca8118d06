"""PATH_EXEMPTIONS staleness guard.

A path exemption waives a lint rule for a whole component — an
architectural decision recorded in code.  Three ways such a waiver
rots silently: the exempted module gets renamed or deleted (the waiver
then matches nothing, and a future module reusing the name inherits it
by accident), the rule id itself disappears, or the component stops
doing the thing that needed the waiver (the entry then hides nothing
today and whatever lands there tomorrow).  This suite fails on all
three, so every entry in ``PATH_EXEMPTIONS`` is guaranteed to point at
a live rule, a live module, and a live finding.
"""

from pathlib import Path

import pytest

from repro.lintkit import engine, iter_python_files, module_name_for, rule_by_id, run_lint
from repro.lintkit.engine import PATH_EXEMPTIONS

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


#: Every ``(rule id, waived module prefix)`` pair, one test case each.
ENTRIES = sorted(
    (rule_id, prefix)
    for rule_id, prefixes in PATH_EXEMPTIONS.items()
    for prefix in prefixes
)


def covered_files(prefix):
    """Source files of the modules at or under ``prefix``."""
    return [
        path
        for path in iter_python_files([SRC_ROOT])
        if module_name_for(path) == prefix
        or module_name_for(path).startswith(prefix + ".")
    ]


@pytest.mark.parametrize("rule_id", sorted(PATH_EXEMPTIONS))
def test_exempted_rule_ids_exist(rule_id):
    rule_by_id(rule_id)  # raises KeyError for a stale id


@pytest.mark.parametrize("rule_id,prefix", ENTRIES)
def test_exempted_prefixes_match_a_live_module(rule_id, prefix):
    assert covered_files(prefix), (
        f"PATH_EXEMPTIONS[{rule_id!r}] waives {prefix!r}, but no module "
        "under src/repro matches it any more — remove or update the "
        "exemption"
    )


@pytest.mark.parametrize("rule_id,prefix", ENTRIES)
def test_exemption_still_waives_a_finding(rule_id, prefix, monkeypatch):
    monkeypatch.setattr(engine, "PATH_EXEMPTIONS", {})
    findings = run_lint(covered_files(prefix), rules=[rule_by_id(rule_id)])
    assert findings, (
        f"PATH_EXEMPTIONS[{rule_id!r}] waives {prefix!r}, but the rule "
        "finds nothing there any more — the waiver is dead, remove it"
    )
