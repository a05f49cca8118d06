"""Per-rule fixtures for iplint: one passing and one failing snippet each.

Every rule is exercised against a minimal source snippet that violates
the invariant it guards and a sibling snippet that honours it, plus the
rule-specific edge cases (package exemptions, guard recognition,
re-raise handling, relative-import resolution).  Module waivers are
entries of ``PATH_EXEMPTIONS``; ``lint_module`` applies them, so the
waiver cases below go through the same table the CLI uses.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lintkit import LintModule, lint_module
from repro.lintkit.rules import (
    RULES,
    CrashWindowRule,
    DeterminismRule,
    DeviceLayeringRule,
    ExceptionDisciplineRule,
    IsppSafetyRule,
    YieldDisciplineRule,
    default_rules,
    rule_by_id,
)

RULE_IDS = {
    "ispp-safety", "device-layering", "determinism", "exception-discipline",
    "yield-discipline", "lock-ordering", "crash-window",
}


def lint_snippet(source, rule, module="repro.storage.fixture"):
    """Run one rule over a dedented source snippet."""
    tree = ast.parse(textwrap.dedent(source))
    return lint_module(
        LintModule(path=Path("fixture.py"), module=module, tree=tree), [rule]
    )


# ----------------------------------------------------------------------
# ispp-safety
# ----------------------------------------------------------------------

ISPP_FAIL = """
    def write(page):
        page.data[0:4] = b"ABCD"
"""

ISPP_PASS = """
    def write(page):
        page.program(b"ABCD", offset=0)
        return page.read_slice(0, 4)
"""


class TestIsppSafety:
    def test_mutation_flagged(self):
        findings = lint_snippet(ISPP_FAIL, IsppSafetyRule())
        assert len(findings) == 1
        assert findings[0].rule == "ispp-safety"
        assert "mutates" in findings[0].message

    def test_primitive_use_clean(self):
        assert lint_snippet(ISPP_PASS, IsppSafetyRule()) == []

    def test_read_slicing_flagged(self):
        findings = lint_snippet(
            "def peek(page):\n    return bytes(page.data[4:8])\n",
            IsppSafetyRule(),
        )
        assert len(findings) == 1
        assert "reads" in findings[0].message

    def test_oob_and_mutator_calls_flagged(self):
        findings = lint_snippet(
            """
            def bad(page):
                page.oob[0] = 0
                page.data.extend(b"x")
                page.data = bytearray(8)
            """,
            IsppSafetyRule(),
        )
        assert [f.line for f in findings] == [3, 4, 5]

    def test_flash_package_exempt(self):
        findings = lint_snippet(
            ISPP_FAIL, IsppSafetyRule(), module="repro.flash.page"
        )
        assert findings == []

    def test_unrelated_attributes_clean(self):
        findings = lint_snippet(
            "def ok(io, buf):\n    return io.payload[0] + buf.body[1]\n",
            IsppSafetyRule(),
        )
        assert findings == []


# ----------------------------------------------------------------------
# device-layering
# ----------------------------------------------------------------------

LAYERING_FAIL = """
    from repro.ftl.noftl import NoFTL

    def build():
        return NoFTL
"""

LAYERING_PASS = """
    from repro.ftl.device import FlashDevice
    from repro.ftl.region import IPAMode
    from repro.ftl.stats import DeviceStats

    def build(device: FlashDevice, mode: IPAMode) -> DeviceStats:
        return device.stats
"""


class TestDeviceLayering:
    def test_protocol_import_clean(self):
        assert lint_snippet(LAYERING_PASS, DeviceLayeringRule()) == []

    def test_relative_import_resolved(self):
        findings = lint_snippet(
            "from ..ftl.noftl import single_region_device\n",
            DeviceLayeringRule(),
            module="repro.ipl.fixture",
        )
        assert len(findings) == 1
        assert "repro.ftl.noftl" in findings[0].message

    def test_class_name_from_any_module_flagged(self):
        findings = lint_snippet(
            "from repro.ftl import BlockSSD\n", DeviceLayeringRule()
        )
        assert len(findings) == 1
        assert "BlockSSD" in findings[0].message

    def test_plain_module_import_flagged(self):
        findings = lint_snippet(
            "import repro.ftl.sharded\n", DeviceLayeringRule()
        )
        assert len(findings) == 1

    @pytest.mark.parametrize(
        "source",
        [
            "from repro.ftl import single_region_device\n",
            "from repro.ftl.gc import greedy\n",
            "def f(flash):\n    from ..ftl import single_region_device\n",
            "class C:\n    from ..ftl.noftl import NoFTL\n",
        ],
        ids=["reexported-factory", "other-submodule", "function-local", "class-body"],
    )
    def test_whitelist_holds_at_any_depth(self, source):
        (finding,) = lint_snippet(source, DeviceLayeringRule())
        assert finding.rule == "device-layering"

    def test_package_object_reads_checked(self):
        source = """
            import repro.ftl as ftl
            from repro import ftl as f

            def build(flash, device: ftl.device.FlashDevice):
                return ftl.single_region_device(flash, 4), f.noftl
        """
        findings = lint_snippet(source, DeviceLayeringRule())
        assert [f.line for f in findings] == [6, 6]
        assert "repro.ftl.single_region_device" in findings[0].message

    @pytest.mark.parametrize(
        "module", ["repro.ftl.blockdev", "repro.session", "repro.ipl.ipa_replay"]
    )
    def test_allowed_packages_exempt(self, module):
        assert lint_snippet(LAYERING_FAIL, DeviceLayeringRule(), module=module) == []

    @pytest.mark.parametrize("module", ["repro", "repro.lintkit.rules.layering"])
    def test_package_root_and_linter_are_checked(self, module):
        findings = lint_snippet(LAYERING_FAIL, DeviceLayeringRule(), module=module)
        assert [f.rule for f in findings] == ["device-layering"]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

DETERMINISM_FAIL = """
    import random
    import time

    def jitter():
        return time.time() + random.random()
"""

DETERMINISM_PASS = """
    import random

    def jitter(rng: random.Random, now: float):
        return now + rng.random()

    def make_rng(seed: int):
        return random.Random(seed)
"""


class TestDeterminism:
    def test_wall_clock_and_global_rng_flagged(self):
        findings = lint_snippet(DETERMINISM_FAIL, DeterminismRule())
        assert {f.rule for f in findings} == {"determinism"}
        messages = " ".join(f.message for f in findings)
        assert "time.time()" in messages and "random.random()" in messages

    def test_injected_rng_clean(self):
        assert lint_snippet(DETERMINISM_PASS, DeterminismRule()) == []

    @pytest.mark.parametrize(
        "call",
        ["time.monotonic()", "time.perf_counter_ns()",
         "datetime.now()", "datetime.utcnow()", "date.today()",
         "random.randint(0, 9)", "random.choice(items)", "random.seed(1)",
         "random.Random()", "random.Random(None)", "random.SystemRandom()"],
    )
    def test_banned_calls(self, call):
        findings = lint_snippet(f"def f(items):\n    return {call}\n",
                                DeterminismRule())
        assert len(findings) == 1

    @pytest.mark.parametrize(
        "call", ["random.Random(7)", "rng.random()"]
    )
    def test_allowed_calls(self, call):
        assert lint_snippet(f"def f(rng):\n    return {call}\n",
                            DeterminismRule()) == []


# ----------------------------------------------------------------------
# exception-discipline
# ----------------------------------------------------------------------

EXCEPT_FAIL = """
    def run(step):
        try:
            step()
        except:
            pass
"""

EXCEPT_PASS = """
    def run(engine, step):
        try:
            step()
        except ValueError:
            return None
        except Exception:
            engine.unpin(dirty=True)
            raise
"""


class TestExceptionDiscipline:
    def test_bare_except_flagged(self):
        findings = lint_snippet(EXCEPT_FAIL, ExceptionDisciplineRule())
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_precise_and_reraise_clean(self):
        assert lint_snippet(EXCEPT_PASS, ExceptionDisciplineRule()) == []

    def test_swallowed_blanket_flagged(self):
        findings = lint_snippet(
            """
            def run(step):
                try:
                    step()
                except Exception:
                    return None
            """,
            ExceptionDisciplineRule(),
        )
        assert len(findings) == 1
        assert "re-raise" in findings[0].message

    def test_blanket_in_tuple_flagged(self):
        findings = lint_snippet(
            """
            def run(step):
                try:
                    step()
                except (ValueError, BaseException):
                    return None
            """,
            ExceptionDisciplineRule(),
        )
        assert len(findings) == 1


# ----------------------------------------------------------------------
# Registry & cross-rule behaviour
# ----------------------------------------------------------------------

class TestRegistry:
    def test_every_rule_has_unique_id_and_description(self):
        ids = [cls.id for cls in RULES]
        assert len(set(ids)) == len(ids) == len(RULE_IDS)
        assert all(cls.description for cls in RULES)

    def test_default_rules_instantiates_all_syntactic(self):
        assert {rule.id for rule in default_rules()} == RULE_IDS

    def test_one_class_per_rule_id(self):
        assert [type(rule) for rule in default_rules()] == list(RULES)
        ids = [cls.id for cls in RULES]
        assert len(ids) == len(set(ids)) == len(RULE_IDS)

    def test_rule_by_id(self):
        assert isinstance(rule_by_id("ispp-safety"), IsppSafetyRule)
        assert rule_by_id("yield-discipline").__class__ is YieldDisciplineRule
        with pytest.raises(KeyError):
            rule_by_id("no-such-rule")
        # One rule per invariant: the call-chain layering check is part
        # of device-layering, not a second id.  The invariants of the
        # retired rules are checked at run time (see the registry).
        for retired in ("transitive-layering", "clock-discipline",
                        "counter-naming", "telemetry-guard"):
            with pytest.raises(KeyError):
                rule_by_id(retired)

    def test_rule_by_id_finds_flow_rules(self):
        assert isinstance(rule_by_id("crash-window"), CrashWindowRule)

    def test_full_set_on_multi_violation_snippet(self):
        source = """
            import time
            from repro.ftl.noftl import NoFTL

            def bad(page):
                page.data[0] = 0
                try:
                    pass
                except:
                    pass
                return time.time()
        """
        findings = lint_module(
            LintModule(
                path=Path("fixture.py"),
                module="repro.storage.fixture",
                tree=ast.parse(textwrap.dedent(source)),
            ),
            default_rules(),
        )
        assert {f.rule for f in findings} == {
            "ispp-safety", "device-layering", "determinism",
            "exception-discipline",
        }
