"""Shared benchmark infrastructure.

Every benchmark module reproduces one table or figure of the paper's
evaluation.  They share:

* :class:`BenchRunner` — cached engine runs and trace recordings, so a
  TPC-C trace recorded for Table 3 is reused by Table 4 instead of
  re-simulated;
* workload factories at the bench scale (databases are MB-sized with
  the paper's schemas, mixes, and skew — see DESIGN.md's substitution
  table);
* :func:`scheme_decisions` — the pure [N x M] decision replay used by
  the sensitivity tables;
* result rendering into ``benchmarks/results/*.txt`` (also printed), so
  ``bench_output.txt`` and EXPERIMENTS.md can quote measured rows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import UpdateSizeCollector
from repro.core import NxMScheme, SCHEME_OFF
from repro.ftl.region import IPAMode
from repro.session import SessionConfig, open_session
from repro.testbed import load_scaled
from repro.workloads import (
    LinkBench,
    LinkBenchConfig,
    RunResult,
    TATP,
    TATPConfig,
    TPCB,
    TPCBConfig,
    TPCC,
    TPCCConfig,
    TraceRecorder,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmark scale; FAST=1 shrinks runs ~4x for smoke testing
#: (set REPRO_BENCH_FAST=1).
FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"


def _scaled(value: int) -> int:
    return max(200, value // 4) if FAST else value


#: Log capacities are scaled to the run length so log-space reclamation
#: cycles several times per measurement, as it does over the paper's
#: multi-hour runs — this is the mechanism that periodically flushes
#: even the hottest pages (and why host writes persist at 90% buffers).
WORKLOADS = {
    "tpcb": dict(
        factory=lambda: TPCB(TPCBConfig(accounts_per_branch=20_000)),
        logical_pages=1000,
        transactions=_scaled(8000),
        default_scheme=NxMScheme(2, 4),
        engine_kwargs=dict(log_capacity_bytes=1_500_000),
    ),
    "tpcc": dict(
        factory=lambda: TPCC(TPCCConfig(customers_per_district=300, items=2000)),
        logical_pages=2600,
        transactions=_scaled(6000),
        default_scheme=NxMScheme(2, 3),
        engine_kwargs=dict(log_capacity_bytes=8_000_000),
    ),
    "tatp": dict(
        factory=lambda: TATP(TATPConfig(subscribers=20_000)),
        logical_pages=1600,
        transactions=_scaled(10_000),
        default_scheme=NxMScheme(2, 4),
        engine_kwargs=dict(log_capacity_bytes=400_000),
    ),
    "linkbench": dict(
        factory=lambda: LinkBench(LinkBenchConfig(nodes=8000)),
        logical_pages=1800,
        transactions=_scaled(8000),
        default_scheme=NxMScheme(2, 100),
        # The paper hosts LinkBench on MySQL InnoDB: emulate its
        # per-flush FIL checksum churn.
        engine_kwargs=dict(page_checksum=True, log_capacity_bytes=600_000),
    ),
}


@dataclass
class BenchRun:
    """One measured engine run plus its instrumentation."""

    result: RunResult
    collector: UpdateSizeCollector
    trace: TraceRecorder
    loaded_pages: int

    @property
    def device(self) -> dict:
        return self.result.device

    @property
    def ipa(self) -> dict:
        return self.result.ipa


class BenchRunner:
    """Runs and caches the engine experiments behind the tables."""

    def __init__(self) -> None:
        self._cache: dict[tuple, BenchRun] = {}

    def run(
        self,
        workload: str,
        scheme: NxMScheme = SCHEME_OFF,
        buffer_fraction: float = 0.75,
        eviction: str = "eager",
        platform: str = "emulator",
        mode: IPAMode = IPAMode.ODD_MLC,
        transactions: int | None = None,
        record_trace: bool = False,
        overprovisioning: float = 0.10,
        seed: int = 7,
    ) -> BenchRun:
        key = (
            workload, scheme, buffer_fraction, eviction, platform,
            mode if platform == "openssd" else None, transactions, record_trace,
            overprovisioning, seed,
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        spec = WORKLOADS[workload]
        if transactions is None:
            transactions = spec["transactions"]
        session = open_session(SessionConfig(
            backend="noftl",
            logical_pages=spec["logical_pages"],
            platform=platform,
            mode=mode,
            overprovisioning=overprovisioning,
            scheme=scheme,
            buffer_pages=spec["logical_pages"],
            eviction=eviction,
            engine=dict(spec.get("engine_kwargs", {})),
            seed=seed,
        ))
        engine = session.engine
        collector = UpdateSizeCollector()
        engine.add_flush_observer(collector)
        trace = TraceRecorder()
        if record_trace:
            trace.attach(engine)
        instance = spec["factory"]()
        driver = load_scaled(engine, instance, buffer_fraction, seed=seed)
        collector.net_sizes.clear()
        collector.gross_sizes.clear()
        trace.events.clear()
        result = driver.run(transactions)
        run = BenchRun(
            result=result,
            collector=collector,
            trace=trace,
            loaded_pages=engine.loaded_pages(),
        )
        self._cache[key] = run
        return run

    def trace(self, workload: str, buffer_fraction: float = 0.75,
              eviction: str = "eager", seed: int = 7) -> BenchRun:
        """A run with trace recording, under the workload's default scheme."""
        spec = WORKLOADS[workload]
        return self.run(
            workload,
            scheme=spec["default_scheme"],
            buffer_fraction=buffer_fraction,
            eviction=eviction,
            record_trace=True,
            seed=seed,
        )


# ----------------------------------------------------------------------
# Pure [N x M] decision replay: re-exported from the library
# ----------------------------------------------------------------------

from repro.core import DecisionCounts, scheme_decisions  # noqa: E402,F401


# ----------------------------------------------------------------------
# Result publication
# ----------------------------------------------------------------------


def publish(name: str, text: str, data=None) -> None:
    """Print a rendered table and persist it under benchmarks/results/.

    ``data`` (any JSON-serializable object) additionally writes a
    machine-readable ``{name}.json`` sidecar next to the ``.txt`` —
    trajectory tracking across commits without screen-scraping the
    rendered tables.

    A FAST run prints only: the committed results are full-scale runs,
    and quarter-scale numbers must not overwrite them.
    """
    if not FAST:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if data is not None:
            payload = json.dumps(data, indent=2, sort_keys=True)
            (RESULTS_DIR / f"{name}.json").write_text(payload + "\n")
    print()
    print(text)
