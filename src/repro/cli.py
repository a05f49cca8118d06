"""Command-line interface: run IPA experiments without writing code.

Usage (also via ``python -m repro``)::

    python -m repro run --workload tpcb --scheme 2x4 --buffer 0.2
    python -m repro compare --workload tpcc --scheme 2x3 --buffer 0.5
    python -m repro advise --workload tpcb --goal longevity
    python -m repro trace-record --workload tatp --out tatp.trace
    python -m repro trace-replay tatp.trace --scheme 2x4
    python -m repro trace --workload tpcb --out run.jsonl
    python -m repro metrics --workload tpcb --format prom
    python -m repro crashtest --backend sharded --shards 4
    python -m repro loadtest --backend sharded --clients 16 --queue-depth 8
    python -m repro loadtest --backend sharded --sweep 1,2,4,8,16

``run`` executes one configuration and prints the counters the paper's
tables report; ``compare`` runs the same workload with and without IPA
and prints relative changes; ``advise`` profiles the workload and
prints the advisor's [N x M] recommendations; the ``trace-*`` commands
implement the Section 8.3 record/replay methodology against the IPL
baseline.  The telemetry commands observe a run through the
:mod:`repro.telemetry` subsystem: ``trace`` streams every cross-layer
event to a JSONL file (and verifies the stream aggregates back to the
run's counters), ``metrics`` dumps the metrics registry in Prometheus
text format or CSV.  ``loadtest`` drives a backend with N concurrent
clients through the :mod:`repro.hostq` scheduler and reports throughput
plus end-to-end latency percentiles (``--sweep`` reruns across queue
depths).  ``lint`` runs ``iplint``, the domain-invariant
static analyzer (:mod:`repro.lintkit`), over the source tree::

    python -m repro lint                      # lint the installed package
    python -m repro lint --format json src/repro
"""

from __future__ import annotations

import argparse
import sys

from .analysis import UpdateSizeCollector, format_table, relative_change
from .core import IPAAdvisor, NxMScheme, SCHEME_OFF
from .errors import ReproError
from .ftl.region import IPAMode
from .ipl import IPAReplay, IPLSimulator, replay_events
from .telemetry import Telemetry
from .telemetry.export import (
    JsonlTraceWriter,
    aggregate_trace,
    csv_summary,
    prometheus_text,
    read_jsonl_trace,
)
from .session import SessionConfig, backend_label, open_session
from .testbed import BACKENDS, load_scaled
from .workloads import (
    LinkBench,
    TATP,
    TPCB,
    TPCC,
    TraceRecorder,
    load_trace,
    save_trace,
)

WORKLOADS = {
    "tpcb": (TPCB, 1000, 1_500_000),
    "tpcc": (TPCC, 2600, 8_000_000),
    "tatp": (TATP, 1600, 400_000),
    "linkbench": (LinkBench, 1800, 600_000),
}


def parse_scheme(text: str) -> NxMScheme:
    """Parse '2x4' or '2x4x12' (N x M [x V]) or 'off'."""
    if text.lower() in ("off", "0x0"):
        return SCHEME_OFF
    parts = text.lower().split("x")
    if len(parts) == 2:
        return NxMScheme(int(parts[0]), int(parts[1]))
    if len(parts) == 3:
        return NxMScheme(int(parts[0]), int(parts[1]), int(parts[2]))
    raise argparse.ArgumentTypeError(f"bad scheme {text!r}; use e.g. 2x4 or 2x3x12")


def _build(args, scheme, record_trace=False, telemetry=None):
    workload_cls, logical_pages, log_capacity = WORKLOADS[args.workload]
    mode = IPAMode.PSLC if args.mode == "pslc" else IPAMode.ODD_MLC
    session = open_session(SessionConfig(
        backend=getattr(args, "backend", "noftl"),
        logical_pages=logical_pages,
        platform=args.platform,
        mode=mode,
        shards=getattr(args, "shards", 4),
        scheme=scheme,
        buffer_pages=logical_pages,
        eviction=args.eviction,
        engine=dict(log_capacity_bytes=log_capacity),
        telemetry=telemetry,
        seed=args.seed,
    ))
    engine = session.engine
    collector = UpdateSizeCollector()
    engine.add_flush_observer(collector)
    recorder = TraceRecorder()
    if record_trace:
        recorder.attach(engine)
    driver = load_scaled(engine, workload_cls(), args.buffer, seed=args.seed)
    collector.net_sizes.clear()
    collector.gross_sizes.clear()
    recorder.events.clear()
    return engine, driver, collector, recorder


def _run_rows(result):
    """The metric rows every run/compare command prints."""
    device = result.device
    return [
        ["throughput [tps]", result.throughput_tps],
        ["host reads", device["host_reads"]],
        ["host writes", device["host_writes"]],
        ["in-place appends", device["delta_writes"]],
        ["IPA fraction [%]", 100 * device["ipa_fraction"]],
        ["GC page migrations", device["gc_page_migrations"]],
        ["GC erases", device["gc_erases"]],
        ["erases/host write", device["erases_per_host_write"]],
        ["mean read I/O [us]", device["mean_read_latency_us"]],
        ["mean write I/O [us]", device["mean_write_latency_us"]],
    ]


def cmd_run(args) -> int:
    """``repro run``: one configuration, one stats table."""
    engine, driver, __, __ = _build(args, args.scheme)
    result = driver.run(args.txns)
    print(format_table(
        ["metric", "value"], _run_rows(result),
        title=(f"{args.workload} on {args.platform} ({backend_label(args)}), "
               f"scheme {args.scheme}, buffer {args.buffer:.0%}, "
               f"{args.eviction} eviction"),
    ))
    return 0


def cmd_compare(args) -> int:
    """``repro compare``: [0x0] vs a scheme, with relative changes."""
    rows = []
    results = {}
    for label, scheme in (("base", SCHEME_OFF), ("ipa", args.scheme)):
        engine, driver, __, __ = _build(args, scheme)
        results[label] = driver.run(args.txns)
    base_rows = _run_rows(results["base"])
    ipa_rows = _run_rows(results["ipa"])
    backend = backend_label(args)
    for (name, base), (__, ipa) in zip(base_rows, ipa_rows):
        rows.append([backend, name, base, ipa, relative_change(base, ipa)])
    print(format_table(
        ["backend", "metric", "[0x0]", f"{args.scheme}", "change %"], rows,
        title=f"{args.workload}: no IPA vs {args.scheme} "
              f"(buffer {args.buffer:.0%})",
    ))
    return 0


def cmd_advise(args) -> int:
    """``repro advise``: profile the workload, print recommendations."""
    engine, driver, collector, __ = _build(args, SCHEME_OFF)
    driver.run(args.txns)
    advisor = IPAAdvisor.from_collector(
        collector, cell_type=engine.device.cell_type,
        page_size=engine.page_size,
    )
    print(f"profiled {len(collector)} update I/Os of {args.workload}")
    for goal, rec in advisor.recommend_all(space_budget=args.space_budget).items():
        print(f"  {goal:10} -> {rec}")
    return 0


def cmd_trace_record(args) -> int:
    """``repro trace-record``: run a workload, save its I/O trace."""
    engine, driver, __, recorder = _build(args, args.scheme, record_trace=True)
    driver.run(args.txns)
    count = save_trace(recorder.events, args.out)
    print(f"recorded {count} events ({recorder.fetches} fetches, "
          f"{recorder.writes} writes) to {args.out}")
    return 0


def cmd_trace_replay(args) -> int:
    """``repro trace-replay``: IPA-vs-IPL comparison on a saved trace."""
    events = load_trace(args.trace)
    writes = [event for event in events if event.op == "write"]
    if not writes:
        print("trace holds no writes", file=sys.stderr)
        return 1
    max_lpn = max(event.lpn for event in events)
    ipl = IPLSimulator()
    replay_events(events, ipl)
    ipa = IPAReplay(max_lpn + 1, args.scheme, overprovisioning=args.op)
    replay_events(events, ipa)
    ipa_summary, ipl_summary = ipa.summary(), ipl.summary()
    rows = [
        ["write amplification", ipa_summary["write_amplification"],
         ipl_summary["write_amplification"]],
        ["read amplification", ipa_summary["read_amplification"],
         ipl_summary["read_amplification"]],
        ["erases", ipa_summary["erases"], ipl_summary["erases"]],
        ["space reserved [%]", 100 * ipa_summary["space_reserved"],
         100 * ipl_summary["space_reserved"]],
    ]
    print(format_table(
        ["metric", f"IPA {args.scheme}", "IPL"], rows,
        title=f"trace replay: {len(events)} events from {args.trace}",
    ))
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: run with JSONL event tracing, verify the stream.

    Tracing is attached *after* the load phase so the stream covers
    exactly the measured run; the command then reads the file back,
    aggregates it, and checks the aggregate against the device and IPA
    counter snapshots (trace completeness).
    """
    telemetry = Telemetry()
    try:
        # Open the output first: fail before the (slow) load phase.
        writer = JsonlTraceWriter(args.out)
    except OSError as exc:
        print(f"cannot write trace: {exc}", file=sys.stderr)
        return 1
    engine, driver, __, __ = _build(args, args.scheme, telemetry=telemetry)
    telemetry.metrics.reset()
    with writer.attach(telemetry.events):
        driver.run(args.txns)
        events_written = writer.events_written
    events = read_jsonl_trace(args.out)
    aggregated = aggregate_trace(events)
    device = engine.device.snapshot()
    ipa = engine.ipa.stats.snapshot()
    mismatches = [
        key
        for key, value in aggregated.items()
        for expected in (device.get(key, ipa.get(key)),)
        if expected is not None and value != expected
    ]
    print(f"wrote {events_written} events to {args.out}")
    rows = [
        ["host reads", aggregated["host_reads"]],
        ["host page writes", aggregated["host_page_writes"]],
        ["in-place appends", aggregated["delta_writes"]],
        ["GC migrations", aggregated["gc_page_migrations"]],
        ["GC erases", aggregated["gc_erases"]],
        ["IPA flushes", aggregated["ipa_flushes"]],
        ["OOP flushes", aggregated["oop_flushes"]],
        ["skipped flushes", aggregated["skipped_flushes"]],
    ]
    print(format_table(
        ["counter (from trace)", "value"], rows,
        title=f"{args.workload}: JSONL trace aggregation",
    ))
    if mismatches:
        print(f"trace does NOT aggregate to run counters: {mismatches}",
              file=sys.stderr)
        return 1
    print("trace verified: aggregation matches device and IPA snapshots")
    return 0


def cmd_crashtest(args) -> int:
    """``repro crashtest``: seeded power-fail matrix with verification.

    Probes the workload's operation count, crashes at strided op-counts
    (torn flash state included), recovers, and diffs committed data
    against a shadow model.  Exits 1 on any committed-data divergence.
    """
    from .crashkit import CrashTestHarness

    harness = CrashTestHarness(
        backend=args.backend,
        shards=args.shards,
        scheme=args.scheme,
        seed=args.seed,
        txns=args.txns,
    )
    result = harness.run_matrix(cases=args.cases, fraction=args.fraction)
    rows = []
    for case in result.cases:
        rows.append([
            case.points[0].at_op,
            case.crash_site or "(no crash)",
            case.committed_txns,
            case.recovery_attempts,
            case.report.undone if case.report else 0,
            len(case.divergences),
        ])
    print(format_table(
        ["crash @op", "site", "committed", "recoveries", "undone", "divergences"],
        rows,
        title=(f"crash matrix: {backend_label(args)}, scheme {args.scheme}, "
               f"seed {args.seed}, {result.total_ops} ops probed"),
    ))
    for case in result.cases:
        for divergence in case.divergences:
            print(f"  op {case.points[0].at_op}: {divergence}", file=sys.stderr)
    print(f"{len(result.cases)} cases, {result.crashes} crashes injected, "
          f"{result.divergences} divergences")
    return 0 if result.ok else 1


def cmd_loadtest(args) -> int:
    """``repro loadtest``: concurrent-client load against one backend.

    ``--level device`` (the default) drives raw page operations;
    ``--level txn`` runs whole engine transactions — buffer pool, WAL,
    group commit — under the same scheduler.  Both are deterministic
    for a fixed seed and flag set — the printed report is byte-identical
    across runs, which the CI smoke jobs assert.
    """
    from .hostq import LoadTestConfig, format_sweep, run_loadtest, sweep_queue_depth

    if args.level == "txn":
        from .hostq import TxnLoadTestConfig, run_txn_loadtest

        if args.sweep:
            print("--sweep is a device-level option; drop it with --level txn",
                  file=sys.stderr)
            return 1
        txn_config = TxnLoadTestConfig(
            backend=args.backend,
            clients=args.clients,
            queue_depth=args.queue_depth,
            seed=args.seed,
            txns=args.txns,
            profile=args.profile,
            logical_pages=args.pages,
            shards=args.shards,
            scheme=parse_scheme(args.scheme),
            buffer_fraction=args.buffer_fraction,
            think_us=args.think_us,
            group_commit=args.group_commit,
            rollback=args.rollback,
            ops_per_txn=args.ops_per_txn,
        )
        print(run_txn_loadtest(txn_config).report())
        return 0

    config = LoadTestConfig(
        backend=args.backend,
        clients=args.clients,
        queue_depth=args.queue_depth,
        arrival=args.arrival,
        seed=args.seed,
        requests=args.requests,
        profile=args.profile,
        logical_pages=args.pages,
        shards=args.shards,
        think_us=args.think_us,
        rate_rps=args.rate,
        admission=args.admission,
        group_commit=args.group_commit,
    )
    if args.sweep:
        try:
            depths = [int(part) for part in args.sweep.split(",") if part]
        except ValueError:
            print(f"bad --sweep list {args.sweep!r}; use e.g. 1,2,4,8", file=sys.stderr)
            return 1
        print(format_sweep(sweep_queue_depth(config, depths)))
        return 0
    print(run_loadtest(config).report())
    return 0


def cmd_lint(args) -> int:
    """``repro lint``: run the iplint invariant rules over source paths.

    With no paths, lints the installed ``repro`` package itself.  Exits
    0 when clean, 1 with findings, 2 when a file cannot be parsed.
    """
    from pathlib import Path

    from .lintkit import render_github, render_json, render_text, run_lint

    paths = args.paths or [str(Path(__file__).resolve().parent)]
    try:
        findings = run_lint(paths)
    except SyntaxError as exc:
        print(f"iplint: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"iplint: {exc}", file=sys.stderr)
        return 2
    render = {
        "json": render_json,
        "github": render_github,
        "human": render_text,
    }[args.format]
    print(render(findings), end="")
    return 1 if findings else 0


def cmd_metrics(args) -> int:
    """``repro metrics``: run with telemetry, dump the metrics registry."""
    telemetry = Telemetry()
    engine, driver, __, __ = _build(args, args.scheme, telemetry=telemetry)
    telemetry.metrics.reset()
    driver.run(args.txns)
    telemetry.collect()
    text = (
        csv_summary(telemetry.metrics)
        if args.format == "csv"
        else prometheus_text(telemetry.metrics)
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write metrics: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(telemetry.metrics)} metrics to {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="In-Place Appends on flash: experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, txns_default=5000):
        p.add_argument("--workload", choices=sorted(WORKLOADS), default="tpcb")
        p.add_argument("--buffer", type=float, default=0.20,
                       help="buffer size as a fraction of the loaded DB")
        p.add_argument("--txns", type=int, default=txns_default)
        p.add_argument("--eviction", choices=("eager", "non-eager"), default="eager")
        p.add_argument("--platform", choices=("emulator", "openssd"),
                       default="emulator")
        p.add_argument("--mode", choices=("pslc", "odd-mlc"), default="odd-mlc",
                       help="IPA mode for the openssd platform")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--backend", choices=BACKENDS, default="noftl",
                       help="storage backend the engine runs on")
        p.add_argument("--shards", type=int, default=4,
                       help="controller count for the sharded backend")

    p = sub.add_parser("run", help="run one configuration")
    common(p)
    p.add_argument("--scheme", type=parse_scheme, default=NxMScheme(2, 4))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run [0x0] vs a scheme")
    common(p)
    p.add_argument("--scheme", type=parse_scheme, default=NxMScheme(2, 4))
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("advise", help="profile a workload, recommend schemes")
    common(p)
    p.add_argument("--goal", default="balanced")
    p.add_argument("--space-budget", type=float, default=0.05)
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("trace-record", help="record a buffer-level I/O trace")
    common(p)
    p.add_argument("--scheme", type=parse_scheme, default=NxMScheme(2, 4))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace_record)

    p = sub.add_parser("trace", help="run with JSONL telemetry tracing")
    common(p)
    p.add_argument("--scheme", type=parse_scheme, default=NxMScheme(2, 4))
    p.add_argument("--out", required=True, help="JSONL event stream path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("metrics", help="run and dump the metrics registry")
    common(p)
    p.add_argument("--scheme", type=parse_scheme, default=NxMScheme(2, 4))
    p.add_argument("--format", choices=("prom", "csv"), default="prom")
    p.add_argument("--out", default=None, help="write dump here (default stdout)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("crashtest", help="power-fail injection matrix")
    p.add_argument("--backend", choices=BACKENDS, default="noftl",
                   help="storage backend the engine runs on")
    p.add_argument("--shards", type=int, default=4,
                   help="controller count for the sharded backend")
    p.add_argument("--scheme", type=parse_scheme, default=NxMScheme(2, 4))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--txns", type=int, default=40,
                   help="transactions in the crash workload")
    p.add_argument("--cases", type=int, default=12,
                   help="crash op-counts to sample across the run")
    p.add_argument("--fraction", type=float, default=0.5,
                   help="per-pulse completion chance of torn operations")
    p.set_defaults(func=cmd_crashtest)

    p = sub.add_parser("loadtest", help="concurrent-client load test (hostq)")
    p.add_argument("--level", choices=("device", "txn"), default="device",
                   help="drive raw page ops (device) or whole engine "
                        "transactions (txn)")
    p.add_argument("--backend", choices=BACKENDS, default="noftl",
                   help="storage backend under load")
    p.add_argument("--shards", type=int, default=4,
                   help="controller count for the sharded backend")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent client sessions")
    p.add_argument("--queue-depth", type=int, default=8,
                   help="NCQ depth: pending + in-flight bound")
    p.add_argument("--arrival", choices=("closed", "open"), default="closed",
                   help="closed loop (think time) or open loop (Poisson)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--requests", type=int, default=2000,
                   help="total operations to generate")
    p.add_argument("--profile", choices=("uniform", "tpcb", "tpcc", "tatp",
                                         "linkbench"),
                   default="uniform", help="per-client operation mix")
    p.add_argument("--pages", type=int, default=512,
                   help="logical pages in the device (all prefilled)")
    p.add_argument("--think-us", type=float, default=0.0,
                   help="closed-loop mean think time [us]")
    p.add_argument("--rate", type=float, default=20000.0,
                   help="open-loop arrival rate [req/s]")
    p.add_argument("--admission", choices=("block", "reject"), default="block",
                   help="backpressure policy when the queue is full")
    p.add_argument("--group-commit", type=int, default=8,
                   help="max commits batched per WAL force")
    p.add_argument("--sweep", default="",
                   help="comma-separated queue depths: print the sweep table")
    p.add_argument("--txns", type=int, default=200,
                   help="[txn level] total transactions across all clients")
    p.add_argument("--scheme", default="2x4",
                   help="[txn level] IPA scheme, e.g. 2x4, 2x4x12, or off")
    p.add_argument("--buffer-fraction", type=float, default=0.5,
                   help="[txn level] buffer pool as a fraction of the pages")
    p.add_argument("--rollback", type=float, default=None,
                   help="[txn level] deliberate-rollback fraction "
                        "(default: the profile's)")
    p.add_argument("--ops-per-txn", type=int, default=0,
                   help="[txn level] ops per transaction (0 = profile default)")
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser("lint", help="run the iplint invariant linter")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the repro package)")
    p.add_argument("--format", choices=("human", "json", "github"),
                   default="human")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("trace-replay", help="replay a trace: IPA vs IPL")
    p.add_argument("trace")
    p.add_argument("--scheme", type=parse_scheme, default=NxMScheme(2, 4))
    p.add_argument("--op", type=float, default=0.40,
                   help="over-provisioning of the IPA replay device")
    p.set_defaults(func=cmd_trace_replay)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
