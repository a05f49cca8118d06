"""Public-API stability: the documented surface stays importable.

README, DESIGN.md and the examples reference these names; this test
fails loudly if a refactor breaks the published surface.
"""

import importlib

import pytest

SURFACE = {
    "repro": [
        "__version__", "Session", "SessionConfig",
        "open_device", "open_session",
    ],
    "repro.session": [
        "PLATFORMS", "Session", "SessionConfig",
        "open_device", "open_session",
    ],
    "repro.perfkit": [
        "Bench", "REGISTRY", "SCHEMA",
        "all_benches", "get_bench", "register", "register_default_benches",
        "run_bench", "run_benchmarks", "render_report",
        "compare_results", "render_comparison",
        "load_results", "write_results",
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
        "Request", "OpKind", "AdmissionPolicy", "QueueStats",
        "ClosedLoopClient", "OpenLoopArrivals", "build_sessions",
        "LoadTestConfig", "LoadTestResult", "run_loadtest",
        "sweep_queue_depth", "format_sweep",
    ],
    "repro.analysis": [
        "UpdateSizeCollector", "PerObjectCollector", "CDF",
        "percentile_at_most", "format_table", "ascii_cdf",
        "db_write_amplification", "lifetime_host_writes",
        "longevity_factor", "relative_change",
    ],
    "repro.testbed": [
        "emulator_device", "openssd_device", "build_engine",
        "load_scaled", "blockssd_device", "sharded_device", "BACKENDS",
    ],
    "repro.cli": ["main", "build_parser", "parse_scheme"],
    "repro.lintkit": [
        "Rule", "Finding", "LintModule", "Suppressions",
        "run_lint", "lint_module", "load_module", "iter_python_files",
        "module_name_for", "RULE_CLASSES", "default_rules", "rule_by_id",
        "json_report", "render_json", "render_text", "render_github",
        "FLOW_RULE_CLASSES", "FlowContext", "FlowRule",
    ],
}


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_surface_importable(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in SURFACE[module_name] if not hasattr(module, name)]
    assert not missing, f"{module_name} lost: {missing}"
