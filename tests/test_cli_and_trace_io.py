"""Tests for trace persistence and the command-line interface."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main, parse_scheme
from repro.core import NxMScheme, SCHEME_OFF
from repro.errors import WorkloadError
from repro.workloads import TraceEvent, load_trace, save_trace


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        events = [
            TraceEvent("fetch", 7),
            TraceEvent("write", 7, 4, 9, "ipa"),
            TraceEvent("write", 8, 0, 0, "new"),
            TraceEvent("write", 9, 100, 120, ""),
        ]
        path = tmp_path / "t.trace"
        assert save_trace(events, path) == 4
        assert load_trace(path) == events

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("something-else\nF 1\n")
        with pytest.raises(WorkloadError):
            load_trace(path)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("repro-trace-1\nX what\n")
        with pytest.raises(WorkloadError):
            load_trace(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace"
        save_trace([], path)
        assert load_trace(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("repro-trace-1\nF 1\n\nF 2\n")
        assert len(load_trace(path)) == 2


class TestSchemeParsing:
    def test_nxm(self):
        assert parse_scheme("2x4") == NxMScheme(2, 4)

    def test_nxmxv(self):
        assert parse_scheme("3x10x6") == NxMScheme(3, 10, 6)

    def test_off(self):
        assert parse_scheme("off") == SCHEME_OFF
        assert parse_scheme("0x0") == SCHEME_OFF

    def test_bad(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_scheme("banana")


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--workload", "tatp", "--txns", "10"])
        assert args.workload == "tatp"
        assert args.func is not None

    def test_run_command(self, capsys):
        code = main(["run", "--workload", "tpcb", "--txns", "300",
                     "--buffer", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "IPA fraction" in out

    def test_compare_command(self, capsys):
        code = main(["compare", "--workload", "tpcb", "--txns", "400",
                     "--scheme", "2x4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[0x0]" in out and "change %" in out

    def test_advise_command(self, capsys):
        code = main(["advise", "--workload", "tpcb", "--txns", "500",
                     "--buffer", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "longevity" in out and "space" in out

    def test_run_blockssd_backend(self, capsys):
        # The one CLI run that loads TATP (~6 s); the rest use tpcb.
        code = main(["run", "--workload", "tatp", "--txns", "200",
                     "--backend", "blockssd"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(blockssd)" in out
        assert "throughput" in out

    def test_run_sharded_backend(self, capsys):
        code = main(["run", "--workload", "tpcb", "--txns", "200",
                     "--backend", "sharded", "--shards", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(sharded[4])" in out
        assert "IPA fraction" in out

    def test_compare_prints_backend_column(self, capsys):
        code = main(["compare", "--workload", "tpcb", "--txns", "200",
                     "--backend", "sharded", "--shards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend" in out
        assert "sharded[2]" in out

    def test_sharded_rejected_on_openssd(self, capsys):
        code = main(["run", "--workload", "tatp", "--txns", "10",
                     "--backend", "sharded", "--platform", "openssd"])
        assert code == 1
        assert "emulator" in capsys.readouterr().err

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--backend", "floppy"])

    def test_trace_record_and_replay(self, tmp_path, capsys):
        trace = tmp_path / "x.trace"
        assert main(["trace-record", "--workload", "tpcb", "--txns", "600",
                     "--buffer", "0.15", "--out", str(trace)]) == 0
        assert trace.exists()
        assert main(["trace-replay", str(trace), "--scheme", "2x4"]) == 0
        out = capsys.readouterr().out
        assert "IPL" in out and "write amplification" in out

    def test_replay_empty_trace_fails_cleanly(self, tmp_path, capsys):
        trace = tmp_path / "empty.trace"
        save_trace([TraceEvent("fetch", 0)], trace)
        assert main(["trace-replay", str(trace)]) == 1


class TestTelemetryCommands:
    def test_trace_command_writes_verified_stream(self, tmp_path, capsys):
        from repro.telemetry.export import aggregate_trace, read_jsonl_trace

        out = tmp_path / "run.jsonl"
        code = main(["trace", "--workload", "tpcb", "--txns", "300",
                     "--buffer", "0.3", "--out", str(out)])
        assert code == 0
        assert "trace verified" in capsys.readouterr().out
        events = read_jsonl_trace(out)
        assert events
        assert aggregate_trace(events)["host_reads"] > 0

    def test_metrics_command_prometheus_to_stdout(self, capsys):
        code = main(["metrics", "--workload", "tpcb", "--txns", "300",
                     "--buffer", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE host_write_latency_us histogram" in out
        assert 'host_write_latency_us_bucket{le="+Inf"}' in out
        assert "# TYPE device_host_reads counter" in out

    def test_metrics_command_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = main(["metrics", "--workload", "tpcb", "--txns", "300",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,type,value"
        assert any(line.startswith("host_write_latency_us_count,") for line in lines)


class TestCLIErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_scheme_argument_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--scheme", "wat"])

    def test_missing_trace_file_reports_error(self, capsys):
        assert main(["trace-replay", "/nonexistent/file.trace"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_trace_output_fails_before_the_load(self, monkeypatch, capsys):
        def no_load(*args, **kwargs):
            raise AssertionError("the workload was loaded before the output opened")

        monkeypatch.setattr(cli, "_build", no_load)
        assert main(["trace-record", "--out", "/no/such/dir/x.trace"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_closed_stdout_exits_as_sigpipe_without_an_error(self):
        """``repro run ... | head -1``: a reader that leaves early is not
        a failure; the run exits 141 (128 + SIGPIPE) with empty stderr."""
        src = Path(cli.__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "--workload", "tpcb", "--txns", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        child.stdout.close()
        stderr = child.stderr.read()
        assert (child.wait(timeout=300), stderr) == (141, b"")

    @pytest.mark.parametrize("fraction", ["-0.5", "0", "1.5"])
    def test_buffer_fraction_outside_unit_interval_rejected(self, fraction, capsys):
        assert main(["run", "--txns", "1", "--buffer", fraction]) == 1
        assert "error: buffer fraction" in capsys.readouterr().err

    def test_torn_fraction_outside_unit_interval_rejected(self, capsys):
        assert main(["crashtest", "--txns", "2", "--cases", "1",
                     "--fraction", "2.0"]) == 1
        assert "error: torn-pulse fraction" in capsys.readouterr().err


def _subcommand_parsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.items()


def test_every_cli_option_is_read():
    """Each subcommand option's ``dest`` is read as ``args.<dest>``
    somewhere outside ``build_parser``: a flag nothing reads is a knob
    that silently does nothing.

    ``repro loadtest`` reads its config flags through one mapping
    instead: each dest in ``args.flags`` becomes the keyword of the
    level's config field of that name, or an error at the other level
    (``test_hostq_loadtest`` pins the dests to the config fields)."""
    tree = ast.parse(Path(cli.__file__).read_text())
    read = set()
    for function in tree.body:
        if isinstance(function, ast.FunctionDef) and function.name != "build_parser":
            read |= {
                node.attr for node in ast.walk(function)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"
            }
    mapped = build_parser().parse_args(["loadtest"]).flags
    assert "flags" in read
    unread = sorted(
        f"{name} --{action.dest}"
        for name, sub in _subcommand_parsers(build_parser())
        for action in sub._actions
        if action.dest != "help" and action.dest not in read
        and not (name == "loadtest" and action.dest in mapped)
    )
    assert not unread, f"options parsed but never read: {unread}"
