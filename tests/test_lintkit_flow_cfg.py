"""The flow-pass foundations: CFG shape, path scans, reaching defs.

Each fixture function exercises one control construct the builder must
model faithfully (DESIGN.md §13): early returns, while/else with break,
nested try/finally, and generator yields inside loops.  Assertions are
structural — block membership, edges, reachability — because the flow
rules' soundness reduces to exactly these facts.
"""

import ast
import textwrap

import pytest

from repro.lintkit.flow.cfg import (
    build_cfg,
    own_nodes,
    reaching_definitions,
    stmts_after,
    stmts_before,
    yields_in_scope,
)


def parse_func(source):
    """The first function definition in a dedented snippet."""
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in snippet")


def stmt_at(func, lineno):
    """The statement starting at a (snippet-relative) line number."""
    for node in ast.walk(func):
        if isinstance(node, ast.stmt) and node.lineno == lineno:
            return node
    raise AssertionError(f"no statement at line {lineno}")


class TestLinearAndBranch:
    def test_linear_function_is_one_block(self):
        func = parse_func(
            """
            def f(x):
                a = x + 1
                b = a * 2
                return b
            """
        )
        cfg = build_cfg(func)
        blocks = [cfg.block_of(stmt) for stmt in func.body]
        assert blocks[0] is blocks[1] is blocks[2]
        assert cfg.exit in blocks[0].succ

    def test_if_else_diamond(self):
        func = parse_func(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        cfg = build_cfg(func)
        cond = cfg.block_of(stmt_at(func, 3))
        then_block = cfg.block_of(stmt_at(func, 4))
        else_block = cfg.block_of(stmt_at(func, 6))
        join_block = cfg.block_of(stmt_at(func, 7))
        assert cond.succ == [then_block, else_block]
        assert then_block.succ == else_block.succ == [join_block]
        # Each arm is off the other's path.
        assert id(stmt_at(func, 6)) not in stmts_after(cfg, [stmt_at(func, 4)])

    def test_return_blocks_edge_to_exit_only(self):
        func = parse_func(
            """
            def f(x):
                if x:
                    return 1
                return 2
            """
        )
        cfg = build_cfg(func)
        ret_block = cfg.block_of(stmt_at(func, 4))
        assert ret_block.succ == [cfg.exit]


class TestLoops:
    def test_while_has_back_edge(self):
        func = parse_func(
            """
            def f(n):
                while n:
                    n -= 1
                return n
            """
        )
        cfg = build_cfg(func)
        header = cfg.block_of(stmt_at(func, 3))
        body = cfg.block_of(stmt_at(func, 4))
        assert header in body.succ  # back edge
        assert body in header.succ

    def test_while_else_break_skips_else(self):
        func = parse_func(
            """
            def f(n):
                while n:
                    if n == 3:
                        break
                    n -= 1
                else:
                    n = -1
                return n
            """
        )
        cfg = build_cfg(func)
        break_block = cfg.block_of(stmt_at(func, 5))
        else_block = cfg.block_of(stmt_at(func, 8))
        join_block = cfg.block_of(stmt_at(func, 9))
        # break reaches the join directly, never the else suite.
        after_break = stmts_after(cfg, [stmt_at(func, 5)])
        assert id(stmt_at(func, 9)) in after_break
        assert id(stmt_at(func, 8)) not in after_break
        assert else_block is not join_block
        assert break_block.succ == [join_block]

    def test_for_loop_over_iterations_includes_next_round(self):
        # The back edge makes statements *before* a source in the loop
        # body reachable "after" it — next iteration semantics.
        func = parse_func(
            """
            def f(items):
                for item in items:
                    first = item
                    second = item
                return None
            """
        )
        cfg = build_cfg(func)
        after = stmts_after(cfg, [stmt_at(func, 4)])
        assert id(stmt_at(func, 3)) in after


class TestTryFinally:
    def test_try_body_may_raise_into_handler(self):
        func = parse_func(
            """
            def f(x):
                try:
                    a = x()
                    b = a + 1
                except ValueError:
                    b = 0
                return b
            """
        )
        cfg = build_cfg(func)
        handler = cfg.block_of(stmt_at(func, 7))
        for line in (4, 5):
            assert handler in cfg.block_of(stmt_at(func, line)).succ

    def test_nested_try_finally_funnels_exits(self):
        func = parse_func(
            """
            def f(x):
                try:
                    try:
                        a = x()
                    finally:
                        inner = 1
                finally:
                    outer = 1
                return a
            """
        )
        cfg = build_cfg(func)
        inner_final = cfg.block_of(stmt_at(func, 7))
        outer_final = cfg.block_of(stmt_at(func, 9))
        body = cfg.block_of(stmt_at(func, 5))
        # The risky statement can raise into the inner finally; the
        # inner finally flows into the outer one.
        assert inner_final in body.succ
        after_inner = stmts_after(cfg, [stmt_at(func, 7)])
        assert id(stmt_at(func, 9)) in after_inner
        # The outer finally can also leave the function (re-raise path).
        assert cfg.exit in outer_final.succ


class TestYields:
    def test_yield_terminates_its_block(self):
        func = parse_func(
            """
            def gen(cmds):
                before = 1
                yield before
                after = 2
            """
        )
        cfg = build_cfg(func)
        (point,) = cfg.yields
        assert point.block.stmts[-1] is point.stmt
        assert not point.bound
        assert cfg.block_of(stmt_at(func, 5)) is not point.block

    def test_bound_vs_bare_yields(self):
        func = parse_func(
            """
            def gen(cmd):
                latency = yield cmd
                yield cmd
            """
        )
        cfg = build_cfg(func)
        bound, bare = cfg.yields
        assert bound.bound and not bare.bound

    def test_yields_in_loop_one_point_reachable_from_itself(self):
        func = parse_func(
            """
            def gen(items):
                for item in items:
                    yield item
                    count = 1
                done = True
            """
        )
        cfg = build_cfg(func)
        (point,) = cfg.yields
        after = stmts_after(cfg, [point.stmt])
        # Post-yield code, the loop exit, and (via the back edge) the
        # next iteration's prelude are all reachable.
        assert id(stmt_at(func, 5)) in after
        assert id(stmt_at(func, 6)) in after
        assert id(stmt_at(func, 3)) in after  # back to the header
        # The yield itself as stopper bounds the next-iteration scan.
        bounded = stmts_after(cfg, [point.stmt], stoppers=[point.stmt])
        assert id(stmt_at(func, 5)) in bounded

    def test_compound_headers_own_no_suite_yields(self):
        func = parse_func(
            """
            def gen(items):
                if items:
                    yield 1
            """
        )
        if_stmt = func.body[0]
        assert yields_in_scope(if_stmt) == []
        cfg = build_cfg(func)
        assert len(cfg.yields) == 1

    def test_nested_def_yields_not_attributed_to_outer(self):
        func = parse_func(
            """
            def outer(items):
                def inner():
                    yield 1
                return inner
            """
        )
        cfg = build_cfg(func)
        assert cfg.yields == []


class TestOwnNodes:
    def test_if_header_owns_test_not_body(self):
        func = parse_func(
            """
            def f(flag, bus):
                if bus.active:
                    bus.emit(flag)
            """
        )
        if_stmt = func.body[0]
        names = {
            node.attr
            for node in own_nodes(if_stmt)
            if isinstance(node, ast.Attribute)
        }
        assert "active" in names
        assert "emit" not in names

    def test_simple_statement_owns_whole_subtree(self):
        func = parse_func(
            """
            def f(bus):
                bus.emit(bus.active)
            """
        )
        names = {
            node.attr
            for node in own_nodes(func.body[0])
            if isinstance(node, ast.Attribute)
        }
        assert names == {"emit", "active"}


class TestReachingDefinitions:
    def test_both_branch_definitions_reach_the_join(self):
        func = parse_func(
            """
            def f(x):
                if x:
                    lpns = sorted(x)
                else:
                    lpns = list(x)
                return lpns
            """
        )
        cfg = build_cfg(func)
        in_sets = reaching_definitions(cfg)
        join = cfg.block_of(stmt_at(func, 7))
        sites = in_sets[join.index]["lpns"]
        assert len(sites) == 2
        values = {type(site.value.func).__name__ for site in sites}
        assert values == {"Name"}

    def test_redefinition_kills_previous(self):
        func = parse_func(
            """
            def f(x):
                lpns = list(x)
                lpns = sorted(x)
                if x:
                    use = lpns
                return None
            """
        )
        cfg = build_cfg(func)
        in_sets = reaching_definitions(cfg)
        use_block = cfg.block_of(stmt_at(func, 6))
        (site,) = in_sets[use_block.index]["lpns"]
        assert isinstance(site.value, ast.Call)
        assert site.value.func.id == "sorted"

    def test_parameters_reach_entry_as_opaque_defs(self):
        func = parse_func(
            """
            def f(x, *rest, **kw):
                return x
            """
        )
        cfg = build_cfg(func)
        in_sets = reaching_definitions(cfg)
        entry = in_sets[cfg.entry.index]
        for name in ("x", "rest", "kw"):
            (site,) = entry[name]
            assert site.value is None


class TestPathScans:
    def test_stopper_blocks_the_path(self):
        func = parse_func(
            """
            def f(dev, data):
                dev.write(0, data)
                step = 1
                dev.write_oob(0, data)
                late = 2
            """
        )
        cfg = build_cfg(func)
        after = stmts_after(
            cfg, [stmt_at(func, 3)], stoppers=[stmt_at(func, 5)]
        )
        assert id(stmt_at(func, 4)) in after
        assert id(stmt_at(func, 6)) not in after

    def test_backward_scan_mirrors_forward(self):
        func = parse_func(
            """
            def f(dev, data):
                early = 0
                dev.write(0, data)
                step = 1
                dev.write_oob(0, data)
            """
        )
        cfg = build_cfg(func)
        before = stmts_before(
            cfg, [stmt_at(func, 6)], stoppers=[stmt_at(func, 4)]
        )
        assert id(stmt_at(func, 5)) in before
        assert id(stmt_at(func, 3)) not in before

    def test_unrecorded_source_is_ignored(self):
        func = parse_func(
            """
            def f(x):
                return x
            """
        )
        cfg = build_cfg(func)
        foreign = ast.parse("pass").body[0]
        assert stmts_after(cfg, [foreign]) == set()


class TestModuleScope:
    def test_module_cfg_builds(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                FLAG = True
                if FLAG:
                    VALUE = 1
                else:
                    VALUE = 2
                """
            )
        )
        cfg = build_cfg(tree)
        assert cfg.block_of(tree.body[0]) is cfg.entry
        assert cfg.block_of(tree.body[1].body[0]) in cfg.entry.succ


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
