"""Fixture suites for the flow-sensitive iplint rules.

Every rule gets at least one failing fixture (the seeded violation the
acceptance criteria name) and one passing fixture (the compliant
variant the real tree uses), plus the edge cases that motivated going
flow-sensitive in the first place — the hoisted ``sorted(...)``
assignment, the GC loop whose stats bump sits *outside* the crash
window only once you respect stoppers.  The seeded violations of real
code live in ``test_lintkit_kill_matrix.py``.  ``TestTransitiveLayering``
keeps the two-hop breaches ``device-layering`` once caught by walking
call chains; its import whitelist now flags each at the import of the
helper, including one re-exported through a package ``__init__``.
"""

import ast
import textwrap
from pathlib import Path
from unittest import mock

import pytest

from repro.lintkit import LintModule, default_rules, engine, lint_module, run_lint
from repro.lintkit.flow.cfg import build_cfg
from repro.lintkit.rules import (
    CrashWindowRule,
    DeviceLayeringRule,
    LockOrderingRule,
    YieldDisciplineRule,
)

#: Modules the project fixtures below load as package ``__init__`` files.
PACKAGES = {"repro.ftl"}


def make_module(source, module="repro.storage.fixture"):
    """A LintModule from inline source, like the syntactic-rule tests."""
    stem = module.replace(".", "/")
    path = f"{stem}/__init__.py" if module in PACKAGES else f"{stem}.py"
    return LintModule(
        path=Path(path), module=module, tree=ast.parse(textwrap.dedent(source))
    )


def lint_snippet(source, rule, module="repro.storage.fixture"):
    """Findings of one rule over one inline module."""
    return lint_module(make_module(source, module), [rule])


def lint_project(sources, rule, target):
    """Findings of one rule over the named module of a ``module ->
    source`` dict; the rest shows what the target reaches, which no
    rule reads."""
    return lint_module(make_module(sources[target], target), [rule])


class TestYieldDiscipline:
    FAIL_POST_YIELD = """
        def evict_program(self, cmd):
            yield cmd
            self.stats.evictions += 1
    """

    PASS_BOUND_YIELD = """
        def evict_program(self, cmd):
            latency = yield cmd
            self.stats.evictions += 1
            return latency
    """

    def test_bound_yield_mutation_allowed(self):
        assert lint_snippet(self.PASS_BOUND_YIELD, YieldDisciplineRule()) == []

    def test_yield_inside_finally_flagged(self):
        source = """
            def cleanup_program(self, cmd):
                try:
                    latency = yield cmd
                finally:
                    yield cmd
        """
        findings = lint_snippet(source, YieldDisciplineRule())
        assert any("finally" in f.message for f in findings)

    def test_yield_inside_except_flagged(self):
        source = """
            def retry_program(self, cmd):
                try:
                    latency = yield cmd
                except OSError:
                    yield cmd
        """
        findings = lint_snippet(source, YieldDisciplineRule())
        assert any("except" in f.message for f in findings)

    def test_global_store_flagged(self):
        source = """
            CACHE = {}

            def fetch_program(lpn, cmd):
                latency = yield cmd
                CACHE[lpn] = latency
        """
        findings = lint_snippet(source, YieldDisciplineRule())
        assert any("module-level" in f.message for f in findings)

    def test_mutation_before_any_yield_allowed(self):
        source = """
            def flush_program(self, cmd):
                self.stats.flushes += 1
                yield cmd
        """
        assert lint_snippet(source, YieldDisciplineRule()) == []

    def test_yield_from_delegation_is_not_a_bare_yield(self):
        source = """
            def outer_program(self, lpn):
                yield from self.fetch_program(lpn)
                self.stats.fetches += 1
        """
        assert lint_snippet(source, YieldDisciplineRule()) == []

    def test_plain_generators_outside_protocol_ignored(self):
        source = """
            def numbers(self):
                yield 1
                self.count += 1
        """
        assert lint_snippet(source, YieldDisciplineRule()) == []

    def test_other_packages_ignored(self):
        findings = lint_snippet(
            self.FAIL_POST_YIELD, YieldDisciplineRule(),
            module="repro.flash.fixture",
        )
        assert findings == []

    def test_hostq_sentinel_generators_covered(self):
        source = """
            def lock_step(self, lpn):
                yield _Acquire(lpn)
                self.held.add(lpn)
                self.count[lpn] = 1
        """
        (finding,) = lint_snippet(
            source, YieldDisciplineRule(), module="repro.hostq.fixture"
        )  # the subscript store, not the call
        assert finding.rule == "yield-discipline"
        assert "result-discarding" in finding.message


class TestLockOrdering:
    FAIL_UNSORTED = """
        def locks_program(txn):
            lpns = {op.lpn for op in txn.ops}
            for lpn in lpns:
                yield _Acquire(lpn)
    """

    PASS_SORTED_NAME = """
        def locks_program(txn):
            lpns = sorted({op.lpn for op in txn.ops})
            for lpn in lpns:
                yield _Acquire(lpn)
    """

    def rule_findings(self, source):
        return lint_snippet(
            source, LockOrderingRule(), module="repro.hostq.fixture"
        )

    def test_sorted_name_proven_by_reaching_defs(self):
        assert self.rule_findings(self.PASS_SORTED_NAME) == []

    def test_inline_sorted_call_allowed(self):
        source = """
            def locks_program(txn):
                for lpn in sorted(txn.lpns):
                    yield _Acquire(lpn)
        """
        assert self.rule_findings(source) == []

    @pytest.mark.parametrize(
        "call", ["sorted(txn.lpns, reverse=True)", "sorted(txn.lpns, key=abs)"]
    )
    def test_only_ascending_sorted_counts(self, call):
        source = f"""
            def locks_program(txn):
                for lpn in {call}:
                    yield _Acquire(lpn)
        """
        (finding,) = self.rule_findings(source)
        assert "plain `sorted(x)`" in finding.message
        ascending = source.replace(call, "sorted(txn.lpns, reverse=False)")
        assert self.rule_findings(ascending) == []

    def test_redefinition_on_one_path_breaks_the_proof(self):
        source = """
            def locks_program(txn, shuffle):
                lpns = sorted(txn.lpns)
                if shuffle:
                    lpns = list(reversed(lpns))
                for lpn in lpns:
                    yield _Acquire(lpn)
        """
        (finding,) = self.rule_findings(source)
        assert "reaching definition" in finding.message

    def test_parameter_iterable_is_unprovable(self):
        source = """
            def locks_program(lpns):
                for lpn in lpns:
                    yield _Acquire(lpn)
        """
        (finding,) = self.rule_findings(source)
        assert finding.rule == "lock-ordering"
        assert "deadlock" in finding.message

    def test_paired_acquire_release_loop_exempt(self):
        source = """
            def txn_program(self, ops):
                for kind, lpn in ops:
                    yield _Acquire(lpn)
                    yield from self.engine.read_program(lpn)
                    yield _Release(lpn)
        """
        assert self.rule_findings(source) == []

    def test_storage_package_out_of_scope(self):
        findings = lint_snippet(
            self.FAIL_UNSORTED, LockOrderingRule(),
            module="repro.storage.fixture",
        )
        assert findings == []


class TestCrashWindow:
    PASS_AFTER_MARK = """
        def flush(self, frame, data):
            self.device.write_delta(frame.lpn, 0, data)
            self.device.write_oob(frame.lpn, b"m", 0)
            frame.slots_used += 1
            self.stats.flushes += 1
    """

    def test_mutation_after_mark_allowed(self):
        findings = lint_snippet(
            self.PASS_AFTER_MARK, CrashWindowRule(), module="repro.core.fixture"
        )
        assert findings == []

    def test_gc_loop_stats_after_mark_not_flagged(self):
        # The back edge makes the bump "reachable" from the next
        # iteration's data call, but a mark always intervenes.
        source = """
            def migrate(self, victims):
                for target, data, oob in victims:
                    self.flash.program(target, data)
                    self.flash.program_oob(target, oob)
                    self.stats.gc_page_migrations += 1
        """
        findings = lint_snippet(
            source, CrashWindowRule(), module="repro.ftl.fixture"
        )
        assert findings == []

    def test_mutation_on_one_branch_of_window_flagged(self):
        source = """
            def flush(self, frame, data, eager):
                self.device.write_delta(frame.lpn, 0, data)
                if eager:
                    self.mapping[frame.lpn] = data
                self.device.write_oob(frame.lpn, b"m", 0)
        """
        (finding,) = lint_snippet(
            source, CrashWindowRule(), module="repro.core.fixture"
        )
        assert finding.rule == "crash-window"
        assert "crash window" in finding.message
        assert "mapping" in finding.message or "self" in finding.message

    def test_local_temporaries_inside_window_allowed(self):
        source = """
            def flush(self, frame, data):
                self.device.write_delta(frame.lpn, 0, data)
                marks = b"m" * frame.slots_used
                self.device.write_oob(frame.lpn, marks, 0)
        """
        findings = lint_snippet(
            source, CrashWindowRule(), module="repro.core.fixture"
        )
        assert findings == []

    def test_function_without_marks_not_in_scope(self):
        source = """
            def raw(self, data):
                self.device.write(0, data)
                self.stats.writes += 1
        """
        findings = lint_snippet(
            source, CrashWindowRule(), module="repro.core.fixture"
        )
        assert findings == []


class TestTransitiveLayering:
    FACTORY = """
        from .noftl import NoFTL

        def make_backend(pages):
            return NoFTL(pages)
    """

    def test_two_hop_breach_flagged(self):
        sources = {
            "repro.ftl.factory": self.FACTORY,
            "repro.storage.user": """
                from ..ftl.factory import make_backend

                def open_store(pages):
                    return make_backend(pages)
            """,
        }
        (finding,) = lint_project(
            sources, DeviceLayeringRule(), "repro.storage.user"
        )
        assert finding.rule == "device-layering"
        assert finding.line == 2
        assert "repro.ftl.factory.make_backend" in finding.message

    def test_session_boundary_sanctioned(self):
        sources = {
            "repro.session": self.FACTORY.replace("from .noftl", "from .ftl.noftl"),
            "repro.hostq.loadtest": """
                from ..session import make_backend

                def run(pages):
                    return make_backend(pages)
            """,
        }
        findings = lint_project(
            sources, DeviceLayeringRule(), "repro.hostq.loadtest"
        )
        assert findings == []

    def test_protocol_only_chain_clean(self):
        sources = {
            "repro.storage.engine2": """
                def flush(device, lpn, data):
                    device.write(lpn, data)
            """,
        }
        findings = lint_project(
            sources, DeviceLayeringRule(), "repro.storage.engine2"
        )
        assert findings == []

    def test_direct_external_reference_flagged(self):
        sources = {
            "repro.hostq.cheat": """
                from ..ftl.noftl import NoFTL

                def build(pages):
                    return NoFTL(pages)
            """,
        }
        # One finding, at the import: the call adds nothing new.
        (finding,) = lint_project(sources, DeviceLayeringRule(), "repro.hostq.cheat")
        assert finding.line == 2
        assert "repro.ftl.noftl.NoFTL" in finding.message

    def test_reexport_through_package_init_followed(self):
        # ``from .factory import make_backend`` inside ``repro/ftl/__init__``
        # names ``repro.ftl.factory``: the package is the module itself.
        sources = {
            "repro.ftl": "from .factory import make_backend\n",
            "repro.ftl.factory": self.FACTORY,
            "repro.storage.user": """
                from ..ftl import make_backend

                def open_store(pages):
                    return make_backend(pages)
            """,
        }
        (finding,) = lint_project(
            sources, DeviceLayeringRule(), "repro.storage.user"
        )
        assert finding.line == 2
        assert "repro.ftl.make_backend" in finding.message

    def test_chain_from_outside_storage_and_hostq_flagged(self):
        sources = {
            "repro.ftl.factory": self.FACTORY,
            "repro.workloads.x": """
                from repro.ftl.factory import make_backend

                def setup(pages):
                    return make_backend(pages)
            """,
        }
        (finding,) = lint_project(
            sources, DeviceLayeringRule(), "repro.workloads.x"
        )
        assert finding.line == 2
        assert "repro.ftl.factory.make_backend" in finding.message

    def test_ftl_package_itself_out_of_scope(self):
        sources = {"repro.ftl.factory": self.FACTORY}
        findings = lint_project(
            sources, DeviceLayeringRule(), "repro.ftl.factory"
        )
        assert findings == []


class TestFlowContextCaching:
    """Each module memoizes its CFGs; run_lint lints module by module."""

    def test_cfgs_memoized_per_scope(self):
        module = make_module("def f(x):\n    return x\n", "repro.core.m")
        func = module.tree.body[0]
        assert module.cfg(func) is module.cfg(func)

    def test_rules_share_one_context_through_run_lint(self, tmp_path):
        pkg = tmp_path / "repro" / "hostq"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            textwrap.dedent(
                """
                def locks_program(lpns):
                    for lpn in lpns:
                        yield _Acquire(lpn)
                """
            )
        )
        # lock-ordering and yield-discipline both read the one function's
        # CFG: the module's memo builds it once.
        with mock.patch.object(engine, "build_cfg", wraps=build_cfg) as built:
            findings = run_lint([tmp_path], root=tmp_path)
        assert built.call_count == 1
        assert any(f.rule == "lock-ordering" for f in findings)
        # An explicit rule list is still honoured as given.
        others = [rule for rule in default_rules() if rule.id != "lock-ordering"]
        without = run_lint([tmp_path], rules=others, root=tmp_path)
        assert all(f.rule != "lock-ordering" for f in without)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
