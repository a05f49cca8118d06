"""The five pinned workloads and what each one observes.

Sizes are fixed here (never imported from the program) so that a later
change to the program cannot resize its own yardstick.  One *window* is
a fresh stack, a warm-up, and ``OPS`` measured operations; ``OPS`` is
sized to about four seconds on the reference container (see README.md).

Every workload is a closed loop: a client issues its next operation only
after the previous one completed.
"""

from __future__ import annotations

import gc
import random
import time

from repro.core import NxMScheme
from repro.hostq import (
    HostScheduler,
    LoadTestConfig,
    TxnExecutor,
    TxnLoadTestConfig,
    run_loadtest,
    run_txn_loadtest,
)
from repro.session import SessionConfig, open_device, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCC, TPCBConfig, TPCCConfig, Workload

import checks

#: Operations run before the timed region so caches are full and lazy
#: set-up is done.
WARMUP = 500
#: ``--smoke`` divides every operation count by this.
SMOKE_DIVISOR = 50


def percentile(ordered: list[float], percent: int) -> float:
    """Nearest-rank percentile of an ascending, non-empty sample list."""
    rank = -(-percent * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def latency_summary(samples: list[float]) -> dict[str, float]:
    """Mean, tail and percentiles of per-operation simulated latencies.

    Simulated latencies are sums of a few fixed costs, so a percentile
    sits on a plateau and reads the same for every seed; the mean and the
    mean of the slowest 1% move with the work and are what is gated.  The
    percentiles are still printed, with the sample count.
    """
    ordered = sorted(samples)
    tail = ordered[-max(1, len(ordered) // 100):]
    return {
        "sim_mean_us": sum(ordered) / len(ordered),
        "sim_tail1pct_us": sum(tail) / len(tail),
        "sim_p50_us": percentile(ordered, 50),
        "sim_p99_us": percentile(ordered, 99),
        "latency_samples": len(ordered),
    }


class Region:
    """The timed region of one window: wall clock, CPU, and observers.

    ``tracer`` and ``profiler`` are mutually exclusive observers switched
    on exactly at the region's boundaries; end-to-end windows pass neither.
    """

    def __init__(self, tracer=None, profiler=None) -> None:
        self.tracer = tracer
        self.profiler = profiler
        self.wall_s = self.cpu_s = 0.0

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.begin()
        if self.profiler is not None:
            self.profiler.enable()
        self.cpu0 = time.process_time()
        self.wall0 = time.perf_counter()

    def stop(self) -> None:
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
        if self.profiler is not None:
            self.profiler.disable()
        if self.tracer is not None:
            self.tracer.finish()
        self.wall_s = wall1 - self.wall0
        self.cpu_s = cpu1 - self.cpu0


def _raw_counters(device, engine) -> dict[str, float]:
    """Public counters nobody resets at the region start; read twice."""
    raw = {f"flash.{key}": value for key, value in device.flash.stats.snapshot().items()}
    if engine is not None:
        log = engine.log
        raw.update({
            "log.appended": log.appended,
            "log.bytes_written": log.bytes_written,
            "log.forces": log.forces,
            "log.commits_grouped": log.commits_grouped,
            "engine.checkpoints": engine.checkpoints,
            "engine.aborted": engine.txns.aborted,
            "engine.committed": engine.txns.committed,
        })
    return raw


class Stack:
    """One workload window: build, warm up, run the timed region, check.

    After :meth:`run`, ``observed`` holds everything simulated the
    window produced — all of it repeats exactly for a fixed seed, which
    the harness asserts across windows and across traced/untraced passes.
    """

    name = ""
    #: Measured operations per window at full size.
    OPS = 0
    #: Whether ``--trace 1`` adds a window with the program's telemetry on.
    telemetry_pass = False

    def __init__(self, seed: int, smoke: bool = False, tracer=None, telemetry=None,
                 ops: int | None = None) -> None:
        divisor = SMOKE_DIVISOR if smoke else 1
        self.seed = seed
        self.ops = max(1, (ops if ops is not None else self.OPS) // divisor)
        self.warmup = max(1, WARMUP // divisor)
        self.tracer = tracer
        self.telemetry = telemetry
        self.device = None
        self.engine = None
        self.observed: dict = {}
        self.attempted = 0
        self.failed = 0
        self._before: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, region: Region) -> None:
        raise NotImplementedError

    def check(self) -> list[checks.Check]:
        raise NotImplementedError

    # -- shared bookkeeping ---------------------------------------------------

    def _enter(self, region: Region) -> None:
        self._before = _raw_counters(self.device, self.engine)
        gc.collect()
        region.start()

    def _observe(self, completed: int, sim_span_us: float, sim_ops_per_s: float,
                 latencies: list[float], **extra) -> None:
        after = _raw_counters(self.device, self.engine)
        engine = self.engine
        self.observed = {
            "completed": completed,
            "sim_span_us": sim_span_us,
            "sim_ops_per_s": sim_ops_per_s,
            **latency_summary(latencies),
            "page_size": self.device.page_size,
            "chips": len(self.device.flash.chips),
            "device": self.device.snapshot(),
            "delta": {key: after[key] - self._before[key] for key in after},
            "ipa": engine.ipa.stats.snapshot() if engine else None,
            "pool": dict(vars(engine.pool.stats)) if engine else None,
            **extra,
        }


class _Probe(Workload):
    """Stands between ``Driver`` and the real workload.

    It sees only what a driver sees — the ``Workload`` interface — and
    reads the engine's simulated clock around each transaction, which is
    the per-transaction latency ``RunResult`` does not keep.  The timed
    region starts at the first transaction after the warm-up.
    """

    def __init__(self, inner: Workload, stack: "_DriverStack") -> None:
        self.inner = inner
        self.name = inner.name
        self.stack = stack
        self.region: Region | None = None
        self.count = 0
        self.latencies: list[float] = []

    def setup(self, engine, rng) -> None:
        self.inner.setup(engine, rng)

    def transaction(self, engine, rng) -> str:
        index = self.count - self.stack.warmup
        self.count += 1
        if index == 0:
            self.stack._enter(self.region)
        if self.stack.tracer is not None:
            self.stack.tracer.set_op(index)
        before = engine.clock
        kind = self.inner.transaction(engine, rng)
        self.latencies.append(engine.clock - before)
        return kind


class _DriverStack(Stack):
    """A real TPC workload through ``Driver.run`` on the noftl emulator."""

    logical_pages = 0
    scheme = NxMScheme(2, 4)
    buffer_fraction = 0.5
    engine_kwargs: dict = {}
    #: Transaction types that end in a deliberate rollback.
    rollback_kinds: tuple[str, ...] = ()

    def make_workload(self) -> Workload:
        raise NotImplementedError

    def setup(self) -> None:
        session = open_session(SessionConfig(
            backend="noftl",
            logical_pages=self.logical_pages,
            scheme=self.scheme,
            # Load with a roomy pool; load_scaled shrinks it afterwards.
            buffer_pages=self.logical_pages,
            eviction="eager",
            engine=dict(self.engine_kwargs),
            telemetry=self.telemetry,
            seed=self.seed,
        ))
        self.device, self.engine = session.device, session.engine
        self.workload = self.make_workload()
        self.probe = _Probe(self.workload, self)
        self.driver = load_scaled(
            self.engine, self.probe, self.buffer_fraction, seed=self.seed
        )

    def run(self, region: Region) -> None:
        self.probe.region = region
        result = self.driver.run(self.ops, warmup=self.warmup)
        region.stop()
        rolled_back = sum(result.mix.get(kind, 0) for kind in self.rollback_kinds)
        self._observe(
            completed=result.transactions - rolled_back,
            sim_span_us=result.sim_seconds * 1e6,
            sim_ops_per_s=result.throughput_tps,
            latencies=self.probe.latencies[self.warmup:],
            mix=dict(result.mix),
        )
        self.attempted = result.transactions
        # Anything that neither committed nor rolled back on purpose.
        self.failed = (
            self.observed["completed"] - self.observed["delta"]["engine.committed"]
        )


class TpccSmallBuffer(_DriverStack):
    name = "tpcc_small_buffer"
    OPS = 2400
    # Twice the database at the window's end (~500 pages): small enough
    # that garbage collection finds live pages to migrate.
    logical_pages = 800
    scheme = NxMScheme(2, 3)
    buffer_fraction = 0.2
    engine_kwargs = {"log_capacity_bytes": 8_000_000}
    rollback_kinds = ("new_order_rollback",)

    def make_workload(self) -> Workload:
        return TPCC(TPCCConfig(customers_per_district=300, items=2000))

    def check(self) -> list[checks.Check]:
        return checks.tpcc_consistency(self.workload)


class TpcbCached(_DriverStack):
    name = "tpcb_cached"
    OPS = 18_000
    logical_pages = 1000
    scheme = NxMScheme(2, 4)
    buffer_fraction = 0.9
    # The log is retained so the output check can crash and recover.
    engine_kwargs = {"log_capacity_bytes": 1_500_000, "retain_log": True}
    telemetry_pass = True

    def make_workload(self) -> Workload:
        return TPCB(TPCBConfig(accounts_per_branch=20_000))

    def check(self) -> list[checks.Check]:
        return checks.tpcb_consistency(self.workload, self.engine)


class _LoadTestStack(Stack):
    """A ``repro.hostq`` load test; its timed region is the event loop.

    ``run_loadtest`` / ``run_txn_loadtest`` build, prefill and run in one
    call, so the region's boundaries are taken where the event loop is
    entered and left: a wrapper on the public ``run`` method named by
    ``hook``, installed for the duration of the call.
    """

    hook: tuple[type, str] = (HostScheduler, "run")

    def launch(self, operations: int):
        """Run the pinned configuration for this many operations."""
        raise NotImplementedError

    def setup(self) -> None:
        # A short run of the same configuration: imports, memo tables and
        # lazily built state are warm before the measured run's own
        # set-up (device build + prefill), which happens inside launch().
        self.launch(self.warmup)

    def run(self, region: Region) -> None:
        cls, method = self.hook
        original = cls.__dict__[method]
        stack = self

        def timed_run(runner):
            stack._capture(runner)
            stack._enter(region)
            try:
                return original(runner)
            finally:
                region.stop()

        setattr(cls, method, timed_run)
        try:
            self.result = self.launch(self.ops)
        finally:
            setattr(cls, method, original)
        self._collect(self.result)

    def _capture(self, runner) -> None:
        """Keep the device, engine and scheduler the run built."""
        raise NotImplementedError

    def _collect(self, result) -> None:
        raise NotImplementedError

    def _hostq_counters(self, conflict_waits: int, commits_per_force: float) -> dict:
        scheduler = self.scheduler
        return {
            "events": scheduler.stats.events,
            "dispatch_rounds": scheduler.stats.dispatch_rounds,
            "holb_bypasses": scheduler.queue.stats.holb_bypasses,
            "max_depth_used": scheduler.queue.stats.max_depth_used,
            "conflict_waits": conflict_waits,
            "commits_per_force": commits_per_force,
        }


class DeviceMixedQd8(_LoadTestStack):
    name = "device_mixed_qd8"
    OPS = 80_000

    def launch(self, operations: int):
        return run_loadtest(LoadTestConfig(
            backend="noftl", clients=8, queue_depth=8, profile="tpcc",
            logical_pages=512, requests=operations, seed=self.seed,
        ))

    def _capture(self, scheduler: HostScheduler) -> None:
        self.device = scheduler.device
        self.scheduler = scheduler

    def _collect(self, result) -> None:
        self.attempted = result.generated
        self.failed = result.generated - result.completed
        self._observe(
            completed=result.completed,
            sim_span_us=result.makespan_us,
            sim_ops_per_s=result.throughput_rps,
            latencies=result.samples,
            hostq=self._hostq_counters(0, result.gate_stats.commits_per_force),
            kinds=dict(result.kind_counts),
        )

    def check(self) -> list[checks.Check]:
        return checks.loadtest_accounting(
            generated=self.result.generated, completed=self.result.completed,
            rejected=self.result.rejected,
        )


class TxnConcurrent(_LoadTestStack):
    name = "txn_concurrent"
    OPS = 17_000
    hook = (TxnExecutor, "run")

    def launch(self, operations: int):
        return run_txn_loadtest(TxnLoadTestConfig(
            backend="noftl", clients=8, queue_depth=8, profile="tpcb",
            scheme=NxMScheme(2, 4), logical_pages=512, buffer_fraction=0.5,
            group_commit=8, txns=operations, seed=self.seed,
        ))

    def _capture(self, executor: TxnExecutor) -> None:
        self.engine = executor.engine
        self.device = executor.engine.device
        self.scheduler = executor.scheduler

    def _collect(self, result) -> None:
        self.attempted = result.started
        self.failed = result.started - result.committed
        self._observe(
            completed=result.committed,
            sim_span_us=result.makespan_us,
            sim_ops_per_s=result.throughput_tps,
            latencies=result.samples,
            hostq=self._hostq_counters(result.conflict_waits, result.commits_per_force),
        )

    def check(self) -> list[checks.Check]:
        result = self.result
        return checks.loadtest_accounting(
            generated=result.started, completed=result.committed,
            rejected=result.aborted + result.retried,
        )


class DeviceWriteGc(Stack):
    """The harness is the client: direct ``FlashDevice`` calls, no scheduler."""

    name = "device_write_gc"
    OPS = 76_000
    LOGICAL_PAGES = 512
    #: Erased bytes every page write leaves at the page's end for appends.
    TAIL = 512
    DELTA = 16

    def setup(self) -> None:
        self.device = device = open_device(SessionConfig(
            backend="noftl", logical_pages=self.LOGICAL_PAGES,
            overprovisioning=0.10, seed=self.seed,
        ))
        body = device.page_size - self.TAIL
        self.images = [bytes([fill]) * body + b"\xff" * self.TAIL for fill in range(251)]
        rng = random.Random(self.seed)
        pages = self.LOGICAL_PAGES

        def draw() -> tuple[int, int, int]:
            roll = rng.random()
            kind = 0 if roll < 0.70 else (1 if roll < 0.85 else 2)
            return kind, rng.randrange(pages), rng.randrange(251)

        self.script = [draw() for _ in range(self.warmup + self.ops)]
        #: What every logical page must read back as, byte for byte.
        self.shadow = [bytearray(self.images[lpn % 251]) for lpn in range(pages)]
        self.cursor = [0] * pages
        self.now = 0.0
        for lpn in range(pages):
            self.now += device.write(lpn, self.images[lpn % 251], self.now).latency_us
        self._play(self.script[: self.warmup], [], None)
        device.reset_stats()

    def _play(self, script, latencies: list[float], tracer) -> None:
        # The loop is harness time inside the timed region: keep it lean.
        device, images, shadow, cursor = self.device, self.images, self.shadow, self.cursor
        read, write = device.read, device.write
        write_delta, can_write_delta = device.write_delta, device.can_write_delta
        body, tail, size = device.page_size - self.TAIL, self.TAIL, self.DELTA
        set_op = tracer.set_op if tracer is not None else None
        record = latencies.append
        now = self.now
        for index, (kind, lpn, fill) in enumerate(script):
            if set_op is not None:
                set_op(index)
            if kind == 2:
                latency = read(lpn, now).latency_us
            elif (
                kind == 1
                and cursor[lpn] + size <= tail
                and can_write_delta(lpn, body + cursor[lpn], size)
            ):
                offset = body + cursor[lpn]
                payload = images[fill][:size]
                latency = write_delta(lpn, offset, payload, now).latency_us
                shadow[lpn][offset:offset + size] = payload
                cursor[lpn] += size
            else:
                # A page write, or a delta whose tail is used up.
                latency = write(lpn, images[fill], now).latency_us
                shadow[lpn][:] = images[fill]
                cursor[lpn] = 0
            now += latency
            record(latency)
        self.now = now

    def run(self, region: Region) -> None:
        latencies: list[float] = []
        script = self.script[self.warmup:]
        start = self.now
        self._enter(region)
        self._play(script, latencies, self.tracer)
        region.stop()
        span = self.now - start
        # A device command that fails raises, so all of them completed.
        self.attempted = len(script)
        self._observe(
            completed=len(latencies),
            sim_span_us=span,
            sim_ops_per_s=len(latencies) / span * 1e6,
            latencies=latencies,
        )

    def check(self) -> list[checks.Check]:
        return checks.device_readback(self.device, self.shadow)


STACKS: dict[str, type[Stack]] = {
    cls.name: cls
    for cls in (TpccSmallBuffer, TpcbCached, DeviceMixedQd8, DeviceWriteGc, TxnConcurrent)
}
