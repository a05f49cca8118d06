"""Public-API stability: the documented surface stays importable.

README, DESIGN.md and the examples reference these names; this test
fails loudly if a refactor breaks the published surface.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro

SURFACE = {
    "repro": [
        "__version__", "Session", "SessionConfig",
        "open_device", "open_session",
    ],
    "repro.session": [
        "BACKENDS", "PLATFORMS", "Session", "SessionConfig",
        "open_device", "open_session",
    ],
    "repro.flash": [
        "FlashGeometry", "FlashMemory", "CellType", "PageKind",
        "PhysicalAddress", "LatencyModel", "FaultInjector",
        "SegmentedEcc", "EccSegment", "compute_code", "correct",
        "ENDURANCE_CYCLES", "ERASED_BYTE", "ispp",
    ],
    "repro.ftl": [
        "NoFTL", "single_region_device", "RegionConfig", "Region",
        "IPAMode", "PageMapping", "DeviceStats", "BlockSSD",
        "greedy", "fifo", "cost_benefit", "wear_aware", "get_policy",
        "FlashDevice", "HostIO", "HostRegionView", "ShardedDevice",
        "ShardedStats", "merge_snapshots", "DERIVED_SNAPSHOT_KEYS",
        "iter_shard_views",
    ],
    "repro.storage": [
        "StorageEngine", "EngineConfig", "Schema", "Column",
        "Int32", "Int64", "Char", "VarChar", "Table", "RID",
        "SlottedPage", "BufferPool", "BTreeIndex", "TableIndex",
        "LogManager", "LogKind", "Transaction", "recover",
        "DeviceCommand", "OpKind",
    ],
    "repro.core": [
        "NxMScheme", "SCHEME_OFF", "IPAManager", "IPAAdvisor",
        "Recommendation", "scheme_decisions", "DecisionCounts",
        "encode_record", "decode_record", "split_pairs",
        "decode_area", "apply_pairs",
    ],
    "repro.ipl": ["IPLSimulator", "IPLConfig", "IPAReplay", "replay_events"],
    "repro.workloads": [
        "TPCB", "TPCC", "TATP", "LinkBench", "Driver", "RunResult",
        "TraceRecorder", "TraceEvent", "save_trace", "load_trace",
        "Zipf", "nurand", "SessionProfile", "ClientSession", "PROFILES",
    ],
    "repro.hostq": [
        "HostScheduler", "SubmissionQueue", "GroupCommitGate",
        "Request", "OpKind", "ADMISSION_POLICIES", "QueueStats",
        "ClosedLoopClient", "OpenLoopArrivals", "build_sessions",
        "LoadTestConfig", "LoadTestResult", "run_loadtest",
        "sweep_queue_depth", "format_sweep",
        "TxnExecutor", "TxnLoadTestConfig", "run_txn_loadtest",
    ],
    "repro.analysis": [
        "UpdateSizeCollector", "PerObjectCollector", "CDF",
        "percentile_at_most", "format_table", "ascii_cdf",
        "db_write_amplification", "lifetime_host_writes",
        "longevity_factor", "relative_change",
    ],
    "repro.testbed": ["load_scaled", "MIN_BUFFER_PAGES"],
    "repro.cli": ["main", "build_parser", "parse_scheme"],
    "repro.lintkit": [
        "Rule", "Finding", "LintModule",
        "run_lint", "lint_module", "load_module", "iter_python_files",
        "module_name_for", "RULES", "default_rules", "rule_by_id",
        "json_report", "render_json", "render_text", "render_github",
    ],
}


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_surface_importable(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in SURFACE[module_name] if not hasattr(module, name)]
    assert not missing, f"{module_name} lost: {missing}"


#: Exports retired on purpose: each restated something that survives
#: under one name (``OpKind``, ``ADMISSION_POLICIES``,
#: ``repro.ipl.replay_events``, ``run_on_clock``, one ``Rule`` shape in
#: one ``RULES`` tuple, ``PATH_EXEMPTIONS`` as the only waiver,
#: ``open_device``/``open_session`` over a ``SessionConfig`` as the one
#: way to build a stack by name, ``repro.session.BACKENDS``,
#: ``LoadTestResult`` for both load-test levels).
#: ``DeviceAmplification`` had no caller.  ``FlowContext`` shared the
#: project call graph between modules; no rule reads beyond its own
#: module any more, and each module memoizes its CFGs.
RETIRED_EXPORTS = [
    ("repro.storage", "CommandKind"),
    ("repro.storage.program", "CommandKind"),
    ("repro.hostq", "AdmissionPolicy"),
    ("repro.hostq", "TxnLoadTestResult"),
    ("repro.hostq.queueing", "AdmissionPolicy"),
    ("repro.workloads", "replay"),
    ("repro.storage", "run_program"),
    ("repro.storage.program", "run_program"),
    ("repro.lintkit", "FlowRule"),
    ("repro.lintkit", "FLOW_RULE_CLASSES"),
    ("repro.lintkit", "RULE_CLASSES"),
    ("repro.lintkit", "Suppressions"),
    ("repro.lintkit", "FlowContext"),
    ("repro.lintkit.flow", "FlowContext"),
    ("repro.testbed", "emulator_device"),
    ("repro.testbed", "openssd_device"),
    ("repro.testbed", "blockssd_device"),
    ("repro.testbed", "sharded_device"),
    ("repro.testbed", "build_engine"),
    ("repro.testbed", "BACKENDS"),
    ("repro.analysis", "DeviceAmplification"),
    ("repro.analysis.amplification", "DeviceAmplification"),
]

#: Modules retired on purpose: the simulated-count gate ``repro.perfkit``
#: held is ``tests/test_sim_counts.py``; the flow rules live in
#: ``repro.lintkit.rules`` beside the others.  The clock, metric-name and
#: telemetry-guard rules gave way to run-time checks that kill every
#: seeded mutation they did (``tests/test_lintkit_kill_matrix.py``).
#: ``device-layering`` is an import whitelist, so the call graph is gone.
RETIRED_MODULES = [
    "repro.perfkit", "repro.lintkit.flow.base", "repro.lintkit.flow.rules",
    "repro.lintkit.rules.clock", "repro.lintkit.rules.telemetry",
    "repro.lintkit.rules.telemetry_guard", "repro.lintkit.flow.callgraph",
]

#: Identifiers of retired forks: the second and third give-up flags,
#: the second kind enum and the three kind translation tables; the
#: BlockSSD aliases of ``read``/``write``/``page_size``; the sharded
#: factory's name for ``SessionConfig.chips``.
RETIRED_IDENTIFIERS = {
    "ipa_disabled", "track_enabled", "stop_tracking",
    "CommandKind", "_KIND_FOR", "KIND_BY_NAME", "kind_channel_op",
    "read_block", "write_block", "block_size", "chips_per_shard",
}


@pytest.mark.parametrize("module_name, name", RETIRED_EXPORTS)
def test_retired_exports_stay_gone(module_name, name):
    assert not hasattr(importlib.import_module(module_name), name)


@pytest.mark.parametrize("module_name", RETIRED_MODULES)
def test_retired_modules_stay_gone(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name a module binds, reads or spells as a string constant
    (``__slots__`` and ``__all__`` entries are strings)."""
    found: set[str] = set()
    for node in ast.walk(tree):
        for field in ("id", "attr", "name", "arg", "asname"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                found.add(value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_retired_identifiers_absent_from_source():
    package = Path(repro.__file__).parent
    for path in sorted(package.rglob("*.py")):
        leftover = _identifiers(ast.parse(path.read_text())) & RETIRED_IDENTIFIERS
        assert not leftover, f"{path.relative_to(package)} still has {sorted(leftover)}"

