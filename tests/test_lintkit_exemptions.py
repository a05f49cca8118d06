"""PATH_EXEMPTIONS staleness guard, and the guard that it is the only waiver.

A path exemption waives a lint rule for a whole component — an
architectural decision recorded in code.  Three ways such a waiver
rots silently: the exempted module gets renamed or deleted (the waiver
then matches nothing, and a future module reusing the name inherits it
by accident), the rule id itself disappears, or the component stops
doing the thing that needed the waiver (the entry then hides nothing
today and whatever lands there tomorrow).  This suite fails on all
three, so every entry in ``PATH_EXEMPTIONS`` is guaranteed to point at
a live rule, a live module, and a live finding.

Those guarantees only cover every waiver if the table is the only way
to waive: a rule that skips modules by name itself would bypass all
three.  The last test fails on any such skip in a rule module.
"""

import ast
import functools
from pathlib import Path
from unittest import mock

import pytest

from repro.lintkit import engine, iter_python_files, module_name_for, rule_by_id, run_lint
from repro.lintkit.engine import PATH_EXEMPTIONS

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
RULES_DIR = SRC_ROOT / "lintkit" / "rules"


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
        if engine.in_package(module_name_for(path), [prefix])
    ]


@functools.cache
def unwaived_findings(rule_id):
    """The rule's findings over the whole tree with no waiver at all.

    The whole tree, not just the waived files: the call-chain half of
    device-layering needs every module in the call graph.
    """
    with mock.patch.dict(PATH_EXEMPTIONS, clear=True):
        return run_lint([SRC_ROOT], rules=[rule_by_id(rule_id)])


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
def test_exemption_still_waives_a_finding(rule_id, prefix):
    waived = {str(path) for path in covered_files(prefix)}
    assert any(f.path in waived for f in unwaived_findings(rule_id)), (
        f"PATH_EXEMPTIONS[{rule_id!r}] waives {prefix!r}, but the rule "
        "finds nothing there any more — the waiver is dead, remove it"
    )


def _module_skips(tree):
    """Lines where a rule module decides applicability by module name:
    an ``in_package`` call, or a comparison against ``module.module``."""
    def own_name(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "module"
            and isinstance(node.value, ast.Name)
            and node.value.id == "module"
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "in_package":
                yield node.lineno
            elif isinstance(func, ast.Attribute) and own_name(func.value):
                yield node.lineno  # module.module.startswith(...) and kin
        elif isinstance(node, ast.Compare):
            if any(own_name(side) for side in [node.left, *node.comparators]):
                yield node.lineno


def test_rules_waive_nothing_themselves():
    offenders = {
        path.name: lines
        for path in sorted(RULES_DIR.glob("*.py"))
        if (lines := list(_module_skips(ast.parse(path.read_text()))))
    }
    assert not offenders, (
        f"rule modules skip modules by name at {offenders}; "
        "waive through PATH_EXEMPTIONS instead"
    )
