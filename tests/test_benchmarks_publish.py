"""``benchmarks/_shared.publish``: FAST runs never touch the goldens.

``benchmarks/results/`` holds full-scale runs.  ``REPRO_BENCH_FAST=1``
shrinks every run about 4x for smoke testing, so what such a run
publishes is printed and not persisted.
"""

import importlib.util
import sys
from pathlib import Path

SHARED = Path(__file__).parent.parent / "benchmarks" / "_shared.py"


def load_shared(monkeypatch, tmp_path, fast: str):
    """A private copy of the module, as a benchmark session would see it."""
    monkeypatch.setenv("REPRO_BENCH_FAST", fast)
    spec = importlib.util.spec_from_file_location(f"_shared_fast{fast}", SHARED)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # @dataclass needs it
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    return module


def test_fast_publish_prints_but_does_not_persist(monkeypatch, tmp_path, capsys):
    shared = load_shared(monkeypatch, tmp_path, "1")
    assert shared.FAST
    shared.publish("table99", "quarter-scale table", data={"rows": 1})
    assert "quarter-scale table" in capsys.readouterr().out
    assert not shared.RESULTS_DIR.exists(), "results directory modified under FAST"


def test_full_publish_persists_text_and_sidecar(monkeypatch, tmp_path):
    shared = load_shared(monkeypatch, tmp_path, "0")
    shared.publish("table99", "full-scale table", data={"rows": 1})
    assert (shared.RESULTS_DIR / "table99.txt").read_text() == "full-scale table\n"
    assert (shared.RESULTS_DIR / "table99.json").exists()

