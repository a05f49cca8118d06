"""The perfkit count gate: registry, replay determinism, comparator."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.perfkit import (
    REGISTRY,
    Bench,
    SCHEMA,
    compare_results,
    get_bench,
    load_results,
    render_comparison,
    render_report,
    run_bench,
    run_benchmarks,
    write_results,
)

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_baseline.json"

#: The benches the determinism cases replay twice more (the loadtest
#: pair and the GC bench get their one replay in the baseline gate).
FAST_BENCHES = (
    "ispp_program", "delta_codec", "buffer_pool", "wal_group_commit",
    "hostq_events",
)


def test_stock_benches_registered():
    expected = set(FAST_BENCHES) | {
        "noftl_write_gc", "device_loadtest", "txn_loadtest",
    }
    assert expected <= set(REGISTRY)
    for bench in REGISTRY.values():
        assert bench.description


def test_get_bench_unknown_name():
    with pytest.raises(ReproError, match="unknown bench"):
        get_bench("warp-drive")


@pytest.mark.parametrize("name", FAST_BENCHES)
def test_bench_counts_are_deterministic(name):
    bench = REGISTRY[name]
    counts = run_bench(bench)
    assert counts and counts == run_bench(bench)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_counts_match_committed_baseline(name):
    """The CI count gate, on every ``pytest``: no simulated count moved."""
    baseline = load_results(BASELINE)
    current = run_benchmarks([name])
    assert set(baseline["benches"]) == set(REGISTRY)
    pinned = {"benches": {name: baseline["benches"][name]}}
    assert compare_results(pinned, current) == []


def test_runner_flags_nondeterministic_bench():
    ticks = []

    def replay():
        ticks.append(1)
        return {"ticks": len(ticks)}  # grows across passes: drifts

    rogue = Bench("rogue", "drifting counts", replay)
    with pytest.raises(ReproError, match="nondeterministic"):
        run_bench(rogue)


def test_payload_roundtrip(tmp_path):
    payload = run_benchmarks(["buffer_pool"], annotations={"note": "unit test"})
    assert payload["schema"] == SCHEMA
    assert payload["annotations"] == {"note": "unit test"}
    target = write_results(payload, tmp_path / "BENCH_test.json")
    loaded = load_results(target)
    assert loaded == json.loads(json.dumps(payload))  # JSON-clean
    assert "buffer_pool" in render_report(loaded)


def test_load_results_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"schema": "something-else"}')
    with pytest.raises(ReproError, match="not a perfkit result"):
        load_results(path)


def _payload(counts=None):
    return {
        "schema": SCHEMA,
        "benches": {
            "demo": {
                "description": "demo",
                "counts": dict(counts or {"events": 42}),
            }
        },
    }


def test_compare_identical_passes():
    assert compare_results(_payload(), _payload()) == []


def test_compare_flags_count_drift():
    problems = compare_results(_payload(), _payload(counts={"events": 43}))
    assert len(problems) == 1
    assert "count 'events' drifted 42 -> 43" in problems[0]


def test_compare_flags_missing_bench():
    current = _payload()
    current["benches"] = {}
    problems = compare_results(_payload(), current)
    assert problems == ["demo: missing from the current run"]


def test_render_comparison_status_column():
    table, problems = render_comparison(_payload(), _payload({"events": 43}))
    assert "COUNTS" in table
    assert problems
    table, problems = render_comparison(_payload(), _payload())
    assert "ok" in table
    assert not problems


def test_default_output_names(tmp_path, monkeypatch, capsys):
    """With no ``--out`` the CLI writes the canonical baseline name."""
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--only", "buffer_pool"]) == 0
    assert "wrote 1 bench results" in capsys.readouterr().out
    assert list(load_results("BENCH_baseline.json")["benches"]) == ["buffer_pool"]
