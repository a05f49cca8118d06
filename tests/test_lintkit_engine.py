"""Engine-level iplint tests: discovery, reporters, CLI, waivers.

Covers the framework itself (everything that is not a specific rule):
module-name derivation, file discovery, the JSON reporter schema, the
``repro lint`` subcommand's exit codes, the path-exemption table, and
the standing regression check that ``src/repro`` is clean.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lintkit import (
    Finding,
    iter_python_files,
    json_report,
    module_name_for,
    render_json,
    render_text,
    run_lint,
)

REPRO_SRC = Path(repro.__file__).resolve().parent

BROKEN_SOURCE = """\
import time


def stamp(page):
    page.data[0] = 0
    return time.time()
"""


# ----------------------------------------------------------------------
# Module naming & discovery
# ----------------------------------------------------------------------

class TestDiscovery:
    def test_module_name_from_src_layout(self):
        assert (
            module_name_for(REPRO_SRC / "flash" / "page.py") == "repro.flash.page"
        )

    def test_package_init_drops_suffix(self):
        assert module_name_for(REPRO_SRC / "ftl" / "__init__.py") == "repro.ftl"

    def test_module_name_with_explicit_root(self, tmp_path):
        path = tmp_path / "pkg" / "mod.py"
        path.parent.mkdir()
        path.write_text("x = 1\n")
        assert module_name_for(path, root=tmp_path) == "pkg.mod"

    def test_iter_python_files_skips_pycache_and_dedups(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-311.py").write_text("x = 1\n")
        files = list(iter_python_files([tmp_path, tmp_path / "a.py"]))
        assert files == [tmp_path / "a.py"]

    def test_syntax_error_propagates(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        with pytest.raises(SyntaxError):
            run_lint([path])


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------

class TestReporters:
    def _findings(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(BROKEN_SOURCE)
        return run_lint([path])

    def test_json_schema(self, tmp_path):
        report = json_report(self._findings(tmp_path))
        assert report["version"] == 1
        assert set(report) == {"version", "findings", "summary"}
        assert report["summary"]["total"] == 2
        assert report["summary"]["files"] == 1
        assert report["summary"]["by_rule"] == {
            "determinism": 1, "ispp-safety": 1,
        }
        for entry in report["findings"]:
            assert set(entry) == {
                "path", "line", "col", "rule", "severity", "message",
            }
            assert entry["severity"] == "error"

    def test_render_json_round_trips(self, tmp_path):
        text = render_json(self._findings(tmp_path))
        assert json.loads(text)["summary"]["total"] == 2

    def test_render_text_lines_and_summary(self, tmp_path):
        text = render_text(self._findings(tmp_path))
        lines = text.splitlines()
        assert len(lines) == 3
        assert "error[ispp-safety]" in lines[0] or "error[ispp-safety]" in lines[1]
        assert lines[-1].startswith("iplint: 2 findings")

    def test_render_text_clean(self):
        assert render_text([]) == "iplint: no findings\n"

    def test_render_github_annotations(self, tmp_path):
        from repro.lintkit import render_github

        text = render_github(self._findings(tmp_path))
        lines = text.splitlines()
        commands = [line for line in lines if line.startswith("::error ")]
        assert len(commands) == 2
        for command in commands:
            assert "file=" in command and ",line=" in command
            assert "title=iplint" in command
        assert lines[-1] == "iplint: 2 findings"

    def test_render_github_escapes_message_payload(self):
        from repro.lintkit import render_github

        finding = Finding("a.py", 1, 1, "x-rule", "50% torn\nnewline")
        (command, _summary) = render_github([finding]).splitlines()
        assert "50%25 torn%0Anewline" in command

    def test_render_github_clean(self):
        from repro.lintkit import render_github

        assert render_github([]) == "iplint: no findings\n"

    def test_findings_sort_by_location(self):
        later = Finding("b.py", 9, 1, "determinism", "x")
        earlier = Finding("a.py", 2, 1, "ispp-safety", "y")
        assert sorted([later, earlier]) == [earlier, later]


# ----------------------------------------------------------------------
# CLI + standing repo regression
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def package_findings():
    """The one whole-package lint of this suite, every rule included."""
    return run_lint([REPRO_SRC])


@pytest.fixture
def linted_paths(monkeypatch, package_findings):
    """Route ``repro lint`` to the shared package lint; the list records
    the paths the command resolved."""
    import repro.lintkit

    paths = []

    def shared_lint(requested):
        paths.extend(Path(path).resolve() for path in requested)
        return package_findings

    monkeypatch.setattr(repro.lintkit, "run_lint", shared_lint)
    return paths


class TestLintCli:
    def test_clean_tree_exits_zero(self, capsys, linted_paths):
        assert main(["lint", str(REPRO_SRC)]) == 0
        assert "no findings" in capsys.readouterr().out
        assert linted_paths == [REPRO_SRC]

    def test_default_paths_lint_the_package(self, capsys, linted_paths):
        assert main(["lint"]) == 0
        assert linted_paths == [REPRO_SRC]

    def test_broken_fixture_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(BROKEN_SOURCE)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "ispp-safety" in out and "determinism" in out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(BROKEN_SOURCE)
        assert main(["lint", "--format", "json", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["total"] == 2

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        assert main(["lint", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_github_format(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(BROKEN_SOURCE)
        assert main(["lint", "--format", "github", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")

    def test_no_flow_escape_hatch(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "hostq"
        pkg.mkdir(parents=True)
        src = (
            "def locks_program(lpns):\n"
            "    for lpn in lpns:\n"
            "        yield _Acquire(lpn)\n"
        )
        (pkg / "bad.py").write_text(src)
        # Module names resolve via the src layout anchor, so the flow
        # rules fire on the hostq module — and there is no switch that
        # turns them off.
        assert main(["lint", str(tmp_path)]) == 1
        assert "lock-ordering" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--no-flow", str(tmp_path)])
        assert excinfo.value.code == 2


def test_src_repro_is_iplint_clean(package_findings):
    """The standing invariant: the shipped tree has zero findings.

    New code that violates a rule fails here (and in the CI lint job)
    rather than waiting for a reviewer to notice.
    """
    assert package_findings == [], "\n".join(str(f) for f in package_findings)


# ----------------------------------------------------------------------
# Path exemptions
# ----------------------------------------------------------------------

class TestPathExemptions:
    def test_exempted_module_rule_is_filtered(self, tmp_path, monkeypatch):
        from repro.lintkit import engine

        monkeypatch.setitem(engine.PATH_EXEMPTIONS, "determinism", ("mod",))
        path = tmp_path / "mod.py"
        path.write_text(BROKEN_SOURCE)
        assert [f.rule for f in run_lint([path])] == ["ispp-safety"]

    def test_exemption_is_rule_specific(self, tmp_path, monkeypatch):
        from repro.lintkit import engine

        monkeypatch.setitem(engine.PATH_EXEMPTIONS, "ispp-safety", ("other",))
        path = tmp_path / "mod.py"
        path.write_text(BROKEN_SOURCE)
        assert len(run_lint([path])) == 2

    def test_inline_directive_comments_are_inert(self, tmp_path):
        # The table is the only waiver: a comment silences nothing.
        path = tmp_path / "mod.py"
        path.write_text(
            "# iplint: disable-file=all\n"
            + BROKEN_SOURCE.replace(
                "page.data[0] = 0", "page.data[0] = 0  # iplint: disable=ispp-safety"
            )
        )
        assert [f.rule for f in run_lint([path])] == ["ispp-safety", "determinism"]

    def test_crash_harness_blanket_handlers_are_exempt(self):
        findings = run_lint([REPRO_SRC / "crashkit" / "harness.py"])
        assert [f for f in findings if f.rule == "exception-discipline"] == []
