"""End-to-end load-test harness: all backends, determinism, CLI."""

import ast
import dataclasses
import inspect

import pytest

from repro import cli
from repro.cli import main
from repro.errors import ReproError
from repro.hostq import (
    LoadTestConfig,
    format_sweep,
    run_loadtest,
    sweep_queue_depth,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.testbed import BACKENDS

SMALL = dict(clients=4, queue_depth=4, requests=120, logical_pages=96)


@pytest.mark.parametrize("backend", BACKENDS)
def test_loadtest_smoke_all_backends(backend):
    result = run_loadtest(LoadTestConfig(backend=backend, **SMALL))
    assert result.completed == result.generated == 120
    assert result.rejected == 0
    assert result.throughput_rps > 0
    assert result.percentiles["p50"] <= result.percentiles["p99"]
    assert result.percentiles["p999"] <= result.max_latency_us
    assert 0.0 < result.die_utilization <= 1.0
    report = result.report()
    assert "requests completed" in report
    assert backend in report


@pytest.mark.parametrize("arrival", ("closed", "open"))
def test_same_seed_is_byte_identical(arrival):
    config = LoadTestConfig(
        backend="sharded", arrival=arrival, profile="tpcb", **SMALL
    )
    first = run_loadtest(config)
    second = run_loadtest(config)
    assert first.report() == second.report()
    assert first.samples == second.samples
    assert first.to_dict() == second.to_dict()


def test_different_seed_changes_the_run():
    base = LoadTestConfig(backend="noftl", profile="tpcb", **SMALL)
    first = run_loadtest(base)
    second = run_loadtest(
        LoadTestConfig(backend="noftl", profile="tpcb", seed=11, **SMALL)
    )
    assert first.samples != second.samples


def test_open_loop_reject_overload_counts_rejections():
    config = LoadTestConfig(
        backend="noftl", arrival="open", admission="reject",
        rate_rps=80_000.0, clients=4, queue_depth=2,
        requests=200, logical_pages=96,
    )
    result = run_loadtest(config)
    assert result.rejected > 0
    assert result.completed + result.rejected == result.generated == 200
    # Rejected requests never enter the latency distribution.
    assert len(result.samples) == result.completed


def test_commit_profile_exercises_group_commit():
    config = LoadTestConfig(
        backend="noftl", profile="tpcb", group_commit=4, **SMALL
    )
    result = run_loadtest(config)
    assert result.kind_counts["commit"] > 0
    assert result.gate_stats.forces > 0
    assert result.gate_stats.commits == result.kind_counts["commit"]


def test_metrics_registry_is_fed():
    registry = MetricsRegistry()
    result = run_loadtest(
        LoadTestConfig(backend="noftl", **SMALL), registry=registry
    )
    assert registry.get("hostq_requests_total").value == result.generated
    assert registry.get("hostq_completed_total").value == result.completed
    hist = registry.get("hostq_request_latency_us")
    assert hist.count == result.completed
    assert hist.mean == pytest.approx(result.mean_latency_us)


def test_cdf_covers_all_samples():
    result = run_loadtest(LoadTestConfig(backend="noftl", **SMALL))
    cdf = result.cdf()
    assert cdf.at(int(result.max_latency_us) + 1) == 100.0
    assert cdf.at(0) < 100.0


def test_sweep_reruns_across_depths():
    config = LoadTestConfig(
        backend="sharded", clients=8, requests=120, logical_pages=96
    )
    results = sweep_queue_depth(config, [1, 4])
    assert [r.config.queue_depth for r in results] == [1, 4]
    assert results[1].throughput_rps > results[0].throughput_rps
    table = format_sweep(results)
    assert "queue depth" in table
    assert "depth=" not in table


def test_validation_rejects_bad_config():
    with pytest.raises(ReproError):
        run_loadtest(LoadTestConfig(arrival="batch"))
    with pytest.raises(ReproError):
        run_loadtest(LoadTestConfig(profile="nosuch"))
    with pytest.raises(ReproError):
        run_loadtest(LoadTestConfig(clients=0))
    with pytest.raises(ReproError):
        sweep_queue_depth(LoadTestConfig(), [])


def test_every_config_field_is_a_cli_flag():
    """``LoadTestConfig`` carries no option ``repro loadtest`` cannot set."""
    tree = ast.parse(inspect.getsource(cli.cmd_loadtest))
    (call,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "LoadTestConfig"
    ]
    fields = {field.name for field in dataclasses.fields(LoadTestConfig)}
    assert {keyword.arg for keyword in call.keywords} == fields


class TestCLI:
    def test_loadtest_command_prints_report(self, capsys):
        assert main([
            "loadtest", "--backend", "noftl", "--clients", "4",
            "--queue-depth", "4", "--requests", "80", "--pages", "96",
        ]) == 0
        out = capsys.readouterr().out
        assert "loadtest: backend=noftl" in out
        assert "p99 latency [us]" in out

    def test_loadtest_command_is_deterministic(self, capsys):
        argv = [
            "loadtest", "--backend", "sharded", "--profile", "tpcb",
            "--clients", "4", "--queue-depth", "4",
            "--requests", "80", "--pages", "96",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_sweep_flag_prints_sweep_table(self, capsys):
        assert main([
            "loadtest", "--backend", "noftl", "--clients", "8",
            "--requests", "80", "--pages", "96", "--sweep", "1,4",
        ]) == 0
        out = capsys.readouterr().out
        assert "queue-depth sweep" in out

    def test_bad_sweep_list_errors(self, capsys):
        assert main([
            "loadtest", "--sweep", "1,two",
        ]) == 1
        assert "bad --sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--queue-depth", "0"], "queue depth must be >= 1"),
        (["--arrival", "open", "--rate", "0"], "arrival rate must be positive"),
        (["--group-commit", "0"], "group commit must be >= 1"),
        (["--level", "txn", "--queue-depth", "0"], "queue depth must be >= 1"),
        (["--level", "txn", "--group-commit", "0"], "group commit must be >= 1"),
    ])
    def test_out_of_range_flags_exit_cleanly(self, capsys, monkeypatch, flags, message):
        """Rejected by ``validate()`` as ReproError, before any device exists."""
        def no_device(*args, **kwargs):
            raise AssertionError("validation must precede construction")

        monkeypatch.setattr("repro.hostq.loadtest.open_device", no_device)
        monkeypatch.setattr("repro.hostq.txnexec.open_session", no_device)
        assert main(["loadtest", "--pages", "64", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""
