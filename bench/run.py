#!/usr/bin/env python3
"""The repo's benchmark: end-to-end metrics, or a traced per-layer attribution.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

runs one workload in this process and prints, as the last line of its
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, from untraced
windows; with ``--trace 1`` they are the per-layer ones, from an
untraced reference window, a traced window and a profiled window.
Without ``--workload`` (or with several) each workload runs in a fresh
child process.  README.md has the catalogue; BENCHMARK.json at the repo
root fixes names, units, directions and bounds.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SCHEMA = "repro-bench/1"

#: Share of a workload's window the observed passes of ``--trace 1`` run:
#: ratios and shares need fewer operations than a timing does.
TRACED_FRACTION = 2
PROFILED_FRACTION = 4


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> float:
    """Put this checkout's ``src`` first on the path; seconds importing it.

    Every set-up time includes this: a user pays the program's imports
    on every run.  The harness's own standard-library imports are not
    the program's cost and are left out.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import stacks  # noqa: F401  (imports every repro module a workload uses)

    return time.perf_counter() - started


@dataclass
class Window:
    """What one fresh stack produced: set-up, timed region, observations."""

    stack: object
    setup_s: float
    wall_s: float
    cpu_s: float
    observed: dict
    ops: int


def run_window(stack_cls, args, ops=None, tracer=None, profiler=None,
               telemetry=None) -> Window:
    """Build a stack, warm it up and take it through its timed region."""
    import stacks

    started = time.perf_counter()
    stack = stack_cls(seed=args.seed, smoke=args.smoke, ops=ops, tracer=tracer,
                      telemetry=telemetry)
    stack.setup()
    region = stacks.Region(tracer=tracer, profiler=profiler)
    stack.run(region)
    return Window(
        stack=stack, setup_s=region.wall0 - started, wall_s=region.wall_s,
        cpu_s=region.cpu_s, observed=stack.observed,
        ops=stack.observed["completed"],
    )


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def simulated_metrics(observed: dict) -> dict[str, float]:
    """The end-to-end metrics that repeat exactly for a fixed seed."""
    device = observed["device"]
    flash_bytes = (
        device["bytes_page_written"] + device["bytes_delta_written"]
        + device["gc_page_migrations"] * observed["page_size"]
    )
    return {
        "sim_ops_per_s": observed["sim_ops_per_s"],
        "sim_mean_us": observed["sim_mean_us"],
        "sim_tail1pct_us": observed["sim_tail1pct_us"],
        "ipa_fraction": device["ipa_fraction"],
        "gc_migrations_per_host_write": device["migrations_per_host_write"],
        "erases_per_host_write": device["erases_per_host_write"],
        "flash_kb_per_host_write": flash_bytes / 1024 / device["host_writes"],
    }


def measure_end_to_end(stack_cls, args, import_s: float):
    """Windows until ``--seconds`` of timed region (or ``--repeats``)."""
    windows_wanted = args.repeats or (1 if args.smoke else 0)
    samples = {"setup_s": [], "host_ops_per_s": [], "cpu_us_per_op": []}
    problems: list[str] = []
    reference = None
    measured = 0.0
    window = None
    while True:
        # Drop the previous stack, cycles included, before the next set-up
        # is timed and before it can raise the peak RSS.
        window = None
        gc.collect()
        window = run_window(stack_cls, args)
        samples["setup_s"].append(import_s + window.setup_s)
        samples["host_ops_per_s"].append(window.ops / window.wall_s)
        samples["cpu_us_per_op"].append(window.cpu_s / window.ops * 1e6)
        if reference is None:
            reference = window.observed
        elif window.observed != reference:
            problems.append("simulated results differ between windows of one seed")
        measured += window.wall_s
        done = len(samples["setup_s"])
        if done >= windows_wanted and (windows_wanted or measured >= args.seconds):
            break
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics.update(simulated_metrics(reference))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = [
        f"{done} windows of {window.ops} ops, {measured:.2f} s timed",
        f"sim latency p50 {reference['sim_p50_us']:.6g} us, p99 {reference['sim_p99_us']:.6g} us"
        f" over {reference['latency_samples']} samples",
    ]
    return window.stack, metrics, samples, problems, notes


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(observed: dict, totals: dict, root_s: float) -> dict[str, float]:
    """Self time per layer plus the public counters read at its boundary."""
    ops = observed["completed"]
    kop = ops / 1000

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {}
    for layer, total in totals.items():
        metrics[f"{layer}.self_s"] = total["self_s"]
        metrics[f"{layer}.self_share"] = ratio(total["self_s"], root_s)
    for layer in ("storage.heap", "ftl", "flash"):
        metrics[f"{layer}.self_us_per_call"] = ratio(
            totals[layer]["self_s"] * 1e6, totals[layer]["calls"]
        )
    metrics["storage.heap.calls_per_op"] = totals["storage.heap"]["calls"] / ops

    # Stacks without an engine above the device report zeros here.
    pool = observed["pool"] or {}
    ipa = observed["ipa"] or {}
    delta = observed["delta"]
    device = observed["device"]
    hostq = observed.get("hostq", {})
    span_us = observed["sim_span_us"]

    metrics["storage.buffer.fetches_per_op"] = pool.get("fetches", 0) / ops
    metrics["storage.buffer.hit_ratio"] = ratio(pool.get("hits", 0), pool.get("fetches", 0))
    metrics["storage.buffer.evictions_per_kop"] = pool.get("evictions", 0) / kop
    metrics["storage.buffer.cleaner_flushes_per_kop"] = pool.get("cleaner_flushes", 0) / kop

    forces = delta.get("log.forces", 0)
    metrics["storage.wal.appends_per_op"] = delta.get("log.appended", 0) / ops
    metrics["storage.wal.bytes_per_op"] = delta.get("log.bytes_written", 0) / ops
    metrics["storage.wal.forces_per_kop"] = forces / kop
    metrics["storage.wal.commits_per_force"] = ratio(
        forces + delta.get("log.commits_grouped", 0), forces
    )
    metrics["storage.wal.checkpoints"] = delta.get("engine.checkpoints", 0)
    metrics["storage.engine.aborts"] = delta.get("engine.aborted", 0)

    flushes = sum(ipa.get(kind, 0) for kind in ("ipa_flushes", "oop_flushes", "skipped_flushes"))
    metrics["core.loads_per_kop"] = pool.get("misses", 0) / kop
    metrics["core.flushes_per_kop"] = flushes / kop
    metrics["core.delta_bytes_per_ipa_flush"] = ratio(
        ipa.get("delta_bytes_written", 0), ipa.get("ipa_flushes", 0)
    )
    metrics["core.budget_overflows_per_kop"] = ipa.get("budget_overflows", 0) / kop
    metrics["core.device_fallbacks"] = ipa.get("device_fallbacks", 0)

    metrics["ftl.host_reads_per_kop"] = device["host_reads"] / kop
    metrics["ftl.host_page_writes_per_kop"] = device["host_page_writes"] / kop
    metrics["ftl.delta_writes_per_kop"] = device["delta_writes"] / kop
    metrics["ftl.gc_page_migrations"] = device["gc_page_migrations"]
    metrics["ftl.gc_erases"] = device["gc_erases"]
    metrics["ftl.gc_sim_time_share"] = device["gc_time_us_total"] / span_us

    programs = delta["flash.page_programs"] + delta["flash.delta_programs"]
    metrics["flash.reads_per_kop"] = delta["flash.page_reads"] / kop
    metrics["flash.programs_per_kop"] = programs / kop
    metrics["flash.erases"] = delta["flash.block_erases"]
    metrics["flash.die_utilization"] = min(
        1.0, delta["flash.busy_time_us"] / (observed["chips"] * span_us)
    )

    metrics["hostq.events_per_op"] = hostq.get("events", 0) / ops
    metrics["hostq.dispatch_rounds_per_op"] = hostq.get("dispatch_rounds", 0) / ops
    metrics["hostq.holb_bypasses_per_kop"] = hostq.get("holb_bypasses", 0) / kop
    metrics["hostq.max_depth_used"] = hostq.get("max_depth_used", 0)
    metrics["hostq.conflict_waits_per_kop"] = hostq.get("conflict_waits", 0) / kop
    metrics["hostq.commits_per_force"] = hostq.get("commits_per_force", 0.0)
    return metrics


def measure_layers(stack_cls, args):
    """Reference, traced and profiled passes; three separate windows."""
    import profiling
    import tracing

    problems: list[str] = []
    traced_ops = stack_cls.OPS // TRACED_FRACTION
    reference = run_window(stack_cls, args, ops=traced_ops)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_window(stack_cls, args, ops=traced_ops, tracer=tracer)
    finally:
        tracer.uninstall()
    if traced.observed != reference.observed:
        problems.append("tracing perturbed the simulation: counters differ from untraced")
    totals, root_s = tracer.layer_totals()
    metrics = layer_metrics(traced.observed, totals, root_s)
    metrics["trace.root_s"] = root_s
    metrics["trace.spans"] = len(tracer)
    metrics["trace.overhead_frac"] = (traced.wall_s - reference.wall_s) / reference.wall_s
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{stack_cls.name}.trace.jsonl"
    tracer.write_jsonl(trace_path)

    profiler = cProfile.Profile()
    profiled = run_window(stack_cls, args, ops=stack_cls.OPS // PROFILED_FRACTION,
                          profiler=profiler)
    metrics.update(profiling.module_attribution(profiler, profiled.ops))

    # The cost of the program's own telemetry, on the stack that measures
    # it; the contract wants every metric from every workload, so the
    # others report 0.
    metrics["telemetry.enabled_overhead_frac"] = 0.0
    notes = [f"{len(tracer)} spans over {traced.ops} ops -> {trace_path.relative_to(ROOT)}"]
    if stack_cls.telemetry_pass:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        events: list = []
        telemetry.events.subscribe_all(events.append)
        observing = run_window(stack_cls, args, ops=traced_ops, telemetry=telemetry)
        if observing.observed != reference.observed:
            problems.append("telemetry perturbed the simulation")
        metrics["telemetry.enabled_overhead_frac"] = (
            (observing.wall_s - reference.wall_s) / reference.wall_s
        )
        notes.append(f"telemetry recorded {len(events)} events in memory")
    return traced.stack, metrics, {}, problems, notes


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def run_one(name: str, args, spec: dict) -> int:
    import_s = import_program()
    import stacks

    stack_cls = stacks.STACKS[name]
    if args.trace:
        declared = spec["per_layer"]
        stack, metrics, samples, problems, notes = measure_layers(stack_cls, args)
    else:
        declared = spec["end_to_end"]
        stack, metrics, samples, problems, notes = measure_end_to_end(
            stack_cls, args, import_s
        )
    checks = stack.check()
    problems += [f"{check.name}: {check.detail}" for check in checks if not check.ok]
    correct = not problems
    failed = stack.failed if correct else stack.attempted

    print(f"== {name} (seed {args.seed}{', smoke' if args.smoke else ''}) ==")
    for note in notes:
        print(f"   {note}")
    reported = {}
    for entry in declared:
        value = metrics[entry["name"]]
        reported[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"   {entry['name']:<44} {value:>16.6g} {entry['unit']}")
    for check in checks:
        print(f"   check {'ok  ' if check.ok else 'FAIL'} {check.name}")
    for problem in problems:
        print(f"   PROBLEM {problem}")

    result = {
        "correct": correct, "attempted": stack.attempted, "failed": failed,
        "metrics": reported,
    }
    if args.out:
        with_samples = {
            metric: dict(entry, samples=samples[metric]) if metric in samples else entry
            for metric, entry in reported.items()
        }
        write_out(args, {name: dict(result, metrics=with_samples, trace=args.trace)})
    print(json.dumps(result))
    return 0 if correct else 1


def write_out(args, workloads: dict) -> None:
    Path(args.out).write_text(json.dumps({
        "schema": SCHEMA,
        "seed": args.seed,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": platform.platform(),
        "date": time.strftime("%Y-%m-%d"),
        "workloads": workloads,
    }, indent=1) + "\n")


# ---------------------------------------------------------------------------
# Several workloads: one fresh process each
# ---------------------------------------------------------------------------

def run_many(names: list[str], args) -> int:
    merged: dict = {}
    worst = 0
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
            part = Path(scratch) / "part.json"
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(part),
            ]
            if args.repeats:
                command += ["--repeats", str(args.repeats)]
            if args.smoke:
                command.append("--smoke")
            finished = subprocess.run(command, check=False)
            worst = max(worst, finished.returncode)
            if part.exists():
                merged.update(json.loads(part.read_text())["workloads"])
    if args.out:
        write_out(args, merged)
        print(f"wrote {args.out}")
    return worst


def main() -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all, one process each)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of every generated input (default 7)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds to accumulate over windows")
    parser.add_argument("--repeats", type=int, default=0,
                        help="run exactly this many windows instead of --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer metrics from traced and profiled passes")
    parser.add_argument("--smoke", action="store_true",
                        help="operation counts / 50, one window; never comparable")
    parser.add_argument("--out", help="also write samples and provenance to this JSON file")
    args = parser.parse_args()
    chosen = args.workload or names
    if len(chosen) == 1:
        return run_one(chosen[0], args, spec)
    return run_many(chosen, args)


if __name__ == "__main__":
    sys.exit(main())
