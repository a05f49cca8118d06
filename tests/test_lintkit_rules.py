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
    ClockDisciplineRule,
    CounterNamingRule,
    CrashWindowRule,
    DeterminismRule,
    DeviceLayeringRule,
    ExceptionDisciplineRule,
    IsppSafetyRule,
    TelemetryGuardRule,
    default_rules,
    rule_by_id,
)

RULE_IDS = {
    "ispp-safety", "device-layering", "determinism", "counter-naming",
    "exception-discipline", "clock-discipline", "yield-discipline",
    "lock-ordering", "crash-window", "telemetry-guard",
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
    from repro.ftl import single_region_device
    from repro.ftl.device import FlashDevice

    def build(device: FlashDevice):
        return device
"""


class TestDeviceLayering:
    def test_concrete_import_flagged(self):
        findings = lint_snippet(LAYERING_FAIL, DeviceLayeringRule())
        assert findings and findings[0].rule == "device-layering"

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
         "random.randint(0, 9)", "random.choice(items)", "random.seed(1)"],
    )
    def test_banned_calls(self, call):
        findings = lint_snippet(f"def f(items):\n    return {call}\n",
                                DeterminismRule())
        assert len(findings) == 1

    @pytest.mark.parametrize(
        "call", ["random.Random(7)", "random.SystemRandom()", "rng.random()"]
    )
    def test_allowed_calls(self, call):
        assert lint_snippet(f"def f(rng):\n    return {call}\n",
                            DeterminismRule()) == []


# ----------------------------------------------------------------------
# telemetry-guard (the dominator rule; its CFG edge cases are in
# test_lintkit_flow_rules.py)
# ----------------------------------------------------------------------

GUARD_FAIL = """
    def on_host_read(self, lpn):
        self.events.emit(HostIOEvent(op="read", lpn=lpn))
"""

GUARD_PASS = """
    def on_host_read(self, lpn):
        if self.events.active:
            self.events.emit(HostIOEvent(op="read", lpn=lpn))
"""


class TestTelemetryGuard:
    def test_unguarded_emit_flagged(self):
        findings = lint_snippet(GUARD_FAIL, TelemetryGuardRule())
        assert len(findings) == 1
        assert findings[0].rule == "telemetry-guard"

    def test_guarded_emit_clean(self):
        assert lint_snippet(GUARD_PASS, TelemetryGuardRule()) == []

    def test_bailout_guard_recognised(self):
        findings = lint_snippet(
            """
            def on_host_read(self, lpn):
                if not self.events.active:
                    return
                self.events.emit(HostIOEvent(op="read", lpn=lpn))
            """,
            TelemetryGuardRule(),
        )
        assert findings == []

    def test_emit_before_bailout_flagged(self):
        findings = lint_snippet(
            """
            def on_host_read(self, lpn):
                self.events.emit(HostIOEvent(op="read", lpn=lpn))
                if not self.events.active:
                    return
            """,
            TelemetryGuardRule(),
        )
        assert len(findings) == 1

    def test_unrelated_condition_not_a_guard(self):
        findings = lint_snippet(
            """
            def on_host_read(self, lpn):
                if lpn > 0:
                    self.events.emit(HostIOEvent(op="read", lpn=lpn))
            """,
            TelemetryGuardRule(),
        )
        assert len(findings) == 1

    def test_event_bus_module_is_checked(self):
        findings = lint_snippet(
            GUARD_FAIL, TelemetryGuardRule(), module="repro.telemetry.events"
        )
        assert len(findings) == 1


# ----------------------------------------------------------------------
# counter-naming
# ----------------------------------------------------------------------

NAMING_FAIL = """
    def instrument(metrics):
        metrics.counter("total_requests", help="requests")
"""

NAMING_PASS = """
    def instrument(metrics, prefix, op):
        metrics.counter("device_host_reads", help="reads")
        metrics.gauge(f"{prefix}wear_max_erase_count")
        metrics.histogram(f"flash_{op}_latency_us", (1, 2))
        metrics.counter("shard3_device_gc_erases")
"""


class TestCounterNaming:
    def test_layerless_name_flagged(self):
        findings = lint_snippet(NAMING_FAIL, CounterNamingRule())
        assert len(findings) == 1
        assert "total_requests" in findings[0].message

    def test_convention_names_clean(self):
        assert lint_snippet(NAMING_PASS, CounterNamingRule()) == []

    def test_hostq_layer_registered(self):
        """The host-queueing subsystem's counters pass the naming rule."""
        snippet = """
    def instrument(metrics):
        metrics.counter("hostq_requests_total", help="requests")
        metrics.histogram("hostq_request_latency_us", (1, 2))
"""
        assert lint_snippet(snippet, CounterNamingRule()) == []

    def test_bad_charset_flagged(self):
        findings = lint_snippet(
            'def f(m):\n    m.gauge("device_Bad-Name")\n', CounterNamingRule()
        )
        assert len(findings) == 1
        assert "lower_snake" in findings[0].message

    def test_dynamic_name_skipped(self):
        findings = lint_snippet(
            "def f(m, name):\n    m.counter(name)\n", CounterNamingRule()
        )
        assert findings == []

    def test_fstring_with_bad_literal_head_flagged(self):
        findings = lint_snippet(
            'def f(m, op):\n    m.counter(f"latency_{op}_total")\n',
            CounterNamingRule(),
        )
        assert len(findings) == 1


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

# ----------------------------------------------------------------------
# clock-discipline
# ----------------------------------------------------------------------

CLOCK_AUG_FAIL = """
    def commit(self, txn):
        self.clock += self.log.force()
"""

CLOCK_MATH_FAIL = """
    def catch_up(engine, target):
        engine.clock = target - 5.0
"""

CLOCK_RESET_FAIL = """
    def reset(self):
        self.clock = 0.0
"""

CLOCK_PASS = """
    def commit(self, txn):
        self._clock.advance(self.log.force())
        self._clock.sync_to(self.scheduler.now)

    def wire(self, clock):
        self.clock = clock          # object wiring stays legal
        self.clock = other.clock    # aliasing too

    def local_counter():
        clock = 0.0
        clock += 1.0                # bare name: not a clock attribute
        return clock
"""


class TestClockDiscipline:
    def test_augmented_assignment_flagged(self):
        findings = lint_snippet(CLOCK_AUG_FAIL, ClockDisciplineRule())
        assert len(findings) == 1
        assert "Clock.advance" in findings[0].message

    def test_arithmetic_assignment_flagged(self):
        assert len(lint_snippet(CLOCK_MATH_FAIL, ClockDisciplineRule())) == 1

    def test_numeric_reset_flagged(self):
        assert len(lint_snippet(CLOCK_RESET_FAIL, ClockDisciplineRule())) == 1

    def test_advance_and_wiring_clean(self):
        assert lint_snippet(CLOCK_PASS, ClockDisciplineRule()) == []

    def test_clock_module_itself_is_checked(self):
        findings = lint_snippet(
            CLOCK_AUG_FAIL, ClockDisciplineRule(), module="repro.storage.clock"
        )
        assert len(findings) == 1


class TestRegistry:
    def test_every_rule_has_unique_id_and_description(self):
        ids = [cls.id for cls in RULES]
        assert len(set(ids)) == len(ids) == 10
        assert all(cls.description for cls in RULES)

    def test_default_rules_instantiates_all_syntactic(self):
        assert {rule.id for rule in default_rules()} == RULE_IDS

    def test_one_class_per_rule_id(self):
        assert [type(rule) for rule in default_rules()] == list(RULES)
        ids = [cls.id for cls in RULES]
        assert len(ids) == len(set(ids)) == 10

    def test_rule_by_id(self):
        assert isinstance(rule_by_id("ispp-safety"), IsppSafetyRule)
        assert rule_by_id("telemetry-guard").__class__ is TelemetryGuardRule
        with pytest.raises(KeyError):
            rule_by_id("no-such-rule")
        # One rule per invariant: the call-chain layering check is part
        # of device-layering, not a second id.
        with pytest.raises(KeyError):
            rule_by_id("transitive-layering")

    def test_rule_by_id_finds_flow_rules(self):
        assert isinstance(rule_by_id("crash-window"), CrashWindowRule)

    def test_full_set_on_multi_violation_snippet(self):
        source = """
            import time
            from repro.ftl.noftl import NoFTL

            def bad(page, metrics, events):
                page.data[0] = 0
                metrics.counter("oops_total")
                events.emit(object())
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
            "telemetry-guard", "counter-naming", "exception-discipline",
        }
