"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Every workload runs at 1/50 size in both modes; the test checks the
output contract (names, finite values, passing checks), not any number.
It lives outside the tier-1 ``testpaths`` on purpose: tier-1 must not
depend on the ruler, and the ruler must not be edited to pass tier-1.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *arguments],
        capture_output=True, text=True, timeout=170, check=False,
    )


def smoke(workload: str, trace: int) -> dict:
    finished = run("--workload", workload, "--smoke", "--seed", "11", "--trace", str(trace))
    assert finished.returncode == 0, finished.stdout + finished.stderr
    return json.loads(finished.stdout.strip().splitlines()[-1])


def assert_contract(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    assert_contract(smoke(workload, trace=0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload: str) -> None:
    result = smoke(workload, trace=1)
    assert_contract(result, SPEC["per_layer"])
    value = {name: entry["value"] for name, entry in result["metrics"].items()}
    # The layers partition the root span: what is left over is the load
    # generator's own loop, never program code.
    in_layers = sum(seconds for name, seconds in value.items() if name.endswith(".self_s"))
    assert in_layers == pytest.approx(value["trace.root_s"], rel=0.05)
    assert (BENCH_DIR / "out" / f"{workload}.trace.jsonl").is_file()


def test_same_seed_repeats_simulated_metrics_exactly() -> None:
    first, second = smoke("device_mixed_qd8", 0), smoke("device_mixed_qd8", 0)
    for name in ("sim_ops_per_s", "sim_tail1pct_us", "ipa_fraction", "flash_kb_per_host_write"):
        assert first["metrics"][name] == second["metrics"][name]


def test_compare_refuses_smoke_results(tmp_path: Path) -> None:
    out = tmp_path / "smoke.json"
    finished = run("--workload", "device_write_gc", "--smoke", "--out", str(out))
    assert finished.returncode == 0, finished.stdout + finished.stderr
    compared = subprocess.run(
        [sys.executable, str(BENCH_DIR / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert compared.returncode == 2
    assert "smoke" in compared.stderr
