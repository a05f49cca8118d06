"""The load-test harness: concurrent clients against one stack, at one level.

``repro loadtest`` replays a seeded multi-client load through the
:class:`~repro.hostq.scheduler.HostScheduler` and reports throughput and
end-to-end latency percentiles at one of two levels: the device level
(:class:`LoadTestConfig`: raw page reads, writes and delta appends, the
concurrent-load methodology behind the paper's Figures 7-10 latency
CDFs) or the transaction level
(:class:`~repro.hostq.txnexec.TxnLoadTestConfig`: whole engine
transactions).

Both levels run through one skeleton, :func:`run_loadtest`: build the
stack the config describes (validated first) → the level's load phase →
``reset_stats`` → arm the die meter → queue, gate and client sessions →
the level's driver → one :class:`LoadTestResult`.  A level contributes
its config fields, its load phase, its driver and its counters section.

Latency is completion minus arrival, per request or per committed
transaction, over the exact sample set the result carries.  Reports are
byte-identical for a fixed seed and flag set, which CI asserts.
:func:`sweep_queue_depth` reruns one configuration across depths: on a
multi-die backend throughput rises with depth while p99 grows, until die
utilization saturates — the NCQ story "How to Write to SSDs" tells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, ClassVar

from ..analysis.cdf import CDF, sample_percentile
from ..analysis.report import format_table
from ..errors import ReproError
from ..session import SessionConfig, backend_label, open_device
from ..telemetry.metrics import MetricsRegistry
from ..workloads.sessions import PROFILES, SessionProfile
from .clients import ClosedLoopClient, OpenLoopArrivals, build_sessions
from .groupcommit import GroupCommitGate, GroupCommitStats
from .queueing import ADMISSION_POLICIES, QueueStats, SubmissionQueue
from .request import OpKind, Request
from .scheduler import HostScheduler

__all__ = [
    "LevelConfig",
    "LoadTestConfig",
    "LoadTestResult",
    "run_loadtest",
    "run_txn_loadtest",
    "sweep_queue_depth",
    "format_sweep",
]

#: Reported latency quantiles, in report order.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


@dataclass(frozen=True)
class LevelConfig:
    """The fields and checks both load-test levels share.

    A level subclasses this with its own fields (each a ``repro
    loadtest`` flag whose ``dest`` is the field name), its report
    vocabulary (the class constants) and :meth:`driver`.
    """

    backend: str = "noftl"
    clients: int = 8
    queue_depth: int = 8
    seed: int = 7
    profile: str = "uniform"
    logical_pages: int = 512
    shards: int = 4
    #: Closed-loop mean think time between a client's completion and its
    #: next submission (exponential; 0 = maximum pressure).
    think_us: float = 0.0
    #: Commits batched per WAL force (1 = force every commit).
    group_commit: int = 8

    #: Admission policy when the queue is full; only the device level
    #: makes it a field (a transaction always waits for a slot).
    admission = "block"

    # The level's report vocabulary: the config fields the title and
    # ``to_dict`` name between depth and seed; what a latency sample
    # times (``"txn "``), what throughput counts and its ``to_dict`` key;
    # the ``(label, counter)`` rows before and after the latency block.
    HEADER: ClassVar[tuple[str, ...]]
    NOUN: ClassVar[str]
    UNIT: ClassVar[str]
    THROUGHPUT: ClassVar[str]
    HEAD: ClassVar[tuple[tuple[str, str], ...]]
    TAIL: ClassVar[tuple[tuple[str, str], ...]]

    def validate(self) -> None:
        """Reject configurations the harness cannot run (ReproError) before
        anything is built, so the CLI prints ``error: ...``, not a traceback."""
        if self.profile not in PROFILES:
            raise ReproError(
                f"unknown profile {self.profile!r}; choose from {sorted(PROFILES)}"
            )
        if self.clients < 1:
            raise ReproError("need at least one client")
        if self.queue_depth < 1:
            raise ReproError(f"queue depth must be >= 1, got {self.queue_depth}")
        if self.group_commit < 1:
            raise ReproError(f"group commit must be >= 1, got {self.group_commit}")
        if self.think_us < 0:
            raise ReproError(f"think time must be >= 0, got {self.think_us}")

    def label(self, with_depth: bool = True) -> str:
        """One-line run descriptor used in report titles."""
        depth = f"depth={self.queue_depth} " if with_depth else ""
        level = " ".join(f"{name}={getattr(self, name)}" for name in self.HEADER)
        return (
            f"backend={backend_label(self)} clients={self.clients} {depth}"
            f"{level} seed={self.seed}"
        )

    def session_config(self) -> SessionConfig:
        """The stack this run measures, validated before anything is built."""
        self.validate()
        stack = SessionConfig(
            backend=self.backend, logical_pages=self.logical_pages,
            shards=self.shards, seed=self.seed, **self.stack_fields(),
        )
        stack.validate()
        return stack

    def stack_fields(self) -> dict[str, Any]:
        """What the level's own fields add to the stack's SessionConfig."""
        return {}

    def session_profile(self) -> SessionProfile:
        """The operation mix every client session draws from."""
        return PROFILES[self.profile]

    def driver(self, stack: SessionConfig) -> Any:
        """Build ``stack`` and the level's driver over it: ``load()`` is the
        load phase, ``drive(queue, gate, sessions, t0)`` enters the event
        loop once and returns its end time, ``counters(queue_stats,
        gate_stats)`` is the level's section of the result, and
        ``device``, ``log`` (the WAL the gate charges, or ``None``) and
        ``samples`` are its attributes."""
        raise NotImplementedError


@dataclass(frozen=True)
class LoadTestConfig(LevelConfig):
    """The device level: seeded page operations against a prefilled device."""

    arrival: str = "closed"
    #: Total operations generated across all clients.
    requests: int = 2000
    #: Open-loop Poisson arrival rate, requests per second.
    rate_rps: float = 20_000.0
    admission: str = "block"

    HEADER = ("arrival", "profile")
    NOUN, UNIT, THROUGHPUT = "", "req", "throughput_rps"
    HEAD = (("requests completed", "completed"), ("requests rejected", "rejected"))
    TAIL = (
        ("queue depth used (max)", "max_depth_used"),
        ("head-of-line bypasses", "holb_bypasses"),
        ("delta fallbacks", "delta_fallbacks"),
        ("commit forces", "commit_forces"),
        ("commits per force", "commits_per_force"),
    )

    def validate(self) -> None:
        """The shared checks, then the device level's."""
        super().validate()
        if self.arrival not in ("closed", "open"):
            raise ReproError(f"arrival must be 'closed' or 'open', got {self.arrival!r}")
        if self.admission not in ADMISSION_POLICIES:
            raise ReproError(f"admission must be one of {ADMISSION_POLICIES}")
        if self.requests < 1:
            raise ReproError("need at least one request")
        if self.arrival == "open" and self.rate_rps <= 0.0:
            raise ReproError(f"arrival rate must be positive, got {self.rate_rps}")

    def driver(self, stack: SessionConfig) -> DeviceExecutor:
        """A device built from ``stack``, under its executor."""
        return DeviceExecutor(open_device(stack), self)


class DeviceExecutor:
    """The device level's driver: queued requests as FlashDevice commands.

    Owns the per-page delta cursor: full writes re-arm a page's erased
    tail, deltas append into it left to right, and an exhausted tail (or
    a device veto) falls back to a full-page rewrite — the storage
    engine's write/append economy, restated at the raw device level so
    the load test exercises GC and ISPP appends realistically.
    """

    #: No WAL at the device level: the group-commit gate charges no log.
    log = None

    def __init__(self, device, config: LoadTestConfig) -> None:
        self.device = device
        self.config = config
        delta_area = config.session_profile().delta_area_bytes
        self.tail = max(0, min(delta_area, device.page_size // 2))
        self.body = device.page_size - self.tail
        self._cursor: dict[int, int] = {}
        self.delta_fallbacks = 0
        self.generated = 0
        #: End-to-end latency (µs) of every completed request.
        self.samples: list[float] = []
        self.kind_counts = {kind.value: 0 for kind in OpKind}

    def page_image(self, lpn: int, stamp: int) -> bytes:
        """A full-page image: patterned body plus an erased delta tail."""
        fill = (lpn * 31 + stamp) % 251
        return bytes([fill]) * self.body + b"\xff" * self.tail

    def load(self) -> None:
        """The load phase: materialize every logical page (clock at 0)."""
        for lpn in range(self.config.logical_pages):
            self.device.write(lpn, self.page_image(lpn, 0), 0.0)
            self._cursor[lpn] = 0

    def drive(self, queue: SubmissionQueue, gate: GroupCommitGate,
              sessions: list, t0: float) -> float:
        """Arm the closed- or open-loop arrivals at ``t0`` and run them."""
        config = self.config
        samples, kind_counts = self.samples, self.kind_counts

        def build_request(client: int, op: tuple[str, int, int]) -> Request:
            kind_name, lpn, length = op
            self.generated += 1
            return Request(
                seq=self.generated, client=client, kind=OpKind(kind_name),
                lpn=lpn, length=length,
            )

        def record(request: Request, now: float) -> None:
            if not request.rejected:
                samples.append(request.latency_us)
                kind_counts[request.kind.value] += 1

        scheduler = HostScheduler(self.device, queue, self.execute, gate=gate)

        if config.arrival == "closed":
            clients = [
                ClosedLoopClient(index, session, config.think_us, seed=config.seed)
                for index, session in enumerate(sessions)
            ]

            def on_complete(request: Request, now: float) -> None:
                record(request, now)
                if self.generated >= config.requests:
                    return
                client = clients[request.client]
                delay = client.think()
                scheduler.schedule(now + delay, partial(closed_arrival, client))

            def closed_arrival(client: ClosedLoopClient, now: float) -> None:
                if self.generated < config.requests:
                    scheduler.submit(build_request(client.index, client.session.next_op()), now)

            scheduler.on_complete = on_complete
            for client in clients:
                scheduler.schedule(t0, partial(closed_arrival, client))
        else:
            arrivals = OpenLoopArrivals(sessions, config.rate_rps, seed=config.seed)

            def open_arrival(now: float) -> None:
                client, op = arrivals.next_op()
                scheduler.submit(build_request(client, op), now)
                if self.generated < config.requests:
                    scheduler.schedule(now + arrivals.interarrival_us(), open_arrival)

            scheduler.on_complete = record
            scheduler.schedule(t0 + arrivals.interarrival_us(), open_arrival)

        return scheduler.run()

    def counters(self, queue: QueueStats, gate: GroupCommitStats) -> dict[str, Any]:
        """The device level's section of the result."""
        return {
            "generated": self.generated,
            "completed": len(self.samples),
            "rejected": queue.rejected,
            "kind_counts": dict(self.kind_counts),
            "max_depth_used": queue.max_depth_used,
            "holb_bypasses": queue.holb_bypasses,
            "delta_fallbacks": self.delta_fallbacks,
            "commit_forces": gate.forces,
            "commits_per_force": gate.commits_per_force,
        }

    def execute(self, request: Request, now: float) -> float:
        """Run one request on the device; returns the observed latency."""
        if request.kind is OpKind.READ:
            return self.device.read(request.lpn, now).latency_us
        if request.kind is OpKind.WRITE:
            self._cursor[request.lpn] = 0
            image = self.page_image(request.lpn, request.seq)
            return self.device.write(request.lpn, image, now).latency_us
        if request.kind is OpKind.DELTA:
            return self._execute_delta(request, now)
        raise ReproError(f"executor cannot run {request.kind}")

    def _execute_delta(self, request: Request, now: float) -> float:
        length = max(1, request.length)
        cursor = self._cursor.get(request.lpn, self.tail)
        offset = self.body + cursor
        if (
            cursor + length <= self.tail
            and self.device.can_write_delta(request.lpn, offset, length)
        ):
            payload = bytes([request.seq % 251]) * length
            self._cursor[request.lpn] = cursor + length
            return self.device.write_delta(request.lpn, offset, payload, now).latency_us
        # Tail exhausted (or the device vetoed): rewrite the page, which
        # re-arms its delta area.  This is the paper's fallback path.
        self.delta_fallbacks += 1
        self._cursor[request.lpn] = 0
        image = self.page_image(request.lpn, request.seq)
        return self.device.write(request.lpn, image, now).latency_us


def _busy_us(device) -> float:
    """Sum of per-chip accumulated command time across the device."""
    scratch = MetricsRegistry()
    device.collect_gauges(scratch)
    return sum(
        m.value for m in scratch if "chip_" in m.name and m.name.endswith("_busy_time_us")
    )


@dataclass
class LoadTestResult:
    """Everything one load-test run measured, at either level.

    ``counters`` is the level's own section.  Each counter is also an
    attribute (``result.completed``), and so is the throughput under the
    level's name (``result.throughput_rps`` or ``result.throughput_tps``).
    """

    config: LevelConfig
    counters: dict[str, Any]
    makespan_us: float
    channels: int
    die_utilization: float
    queue_stats: QueueStats
    gate_stats: GroupCommitStats
    samples: list[float] = field(repr=False)
    #: Completed requests (or committed transactions) per second.
    throughput: float = field(init=False)
    mean_latency_us: float = field(init=False)
    max_latency_us: float = field(init=False)
    percentiles: dict[str, float] = field(init=False)

    def __post_init__(self) -> None:
        ordered = sorted(self.samples)
        self.throughput = len(ordered) / (self.makespan_us / 1e6)
        self.mean_latency_us = sum(ordered) / len(ordered) if ordered else 0.0
        self.max_latency_us = ordered[-1] if ordered else 0.0
        self.percentiles = {name: sample_percentile(ordered, q) for name, q in QUANTILES}
        vars(self).update(self.counters)
        setattr(self, self.config.THROUGHPUT, self.throughput)

    def cdf(self) -> CDF:
        """Latency CDF over the exact end-to-end samples."""
        return CDF.from_samples(list(self.samples))

    def to_dict(self) -> dict:
        """JSON-friendly summary (benchmark trajectory tracking)."""
        config = self.config
        return {
            "backend": config.backend,
            "clients": config.clients,
            "queue_depth": config.queue_depth,
            **{name: str(getattr(config, name)) for name in config.HEADER},
            "seed": config.seed,
            **self.counters,
            "makespan_us": self.makespan_us,
            config.THROUGHPUT: self.throughput,
            "mean_latency_us": self.mean_latency_us,
            "max_latency_us": self.max_latency_us,
            "percentiles": dict(self.percentiles),
            "channels": self.channels,
            "die_utilization": self.die_utilization,
        }

    def report(self) -> str:
        """The deterministic human-readable report ``repro loadtest`` prints."""
        config = self.config
        latency = f"{config.NOUN}latency [us]"
        rows = [(label, self.counters[key]) for label, key in config.HEAD]
        rows += [
            (f"throughput [{config.UNIT}/s]", self.throughput),
            (f"mean {latency}", self.mean_latency_us),
            *((f"{name} {latency}", value) for name, value in self.percentiles.items()),
            (f"max {latency}", self.max_latency_us),
            *((label, self.counters[key]) for label, key in config.TAIL),
            ("die channels", self.channels),
            ("die utilization [%]", self.die_utilization),
            ("makespan [ms]", self.makespan_us / 1000.0),
        ]
        # A ``[%]`` row holds a ratio and prints it as a percentage.
        return format_table(
            ["metric", "value"],
            [[label, 100.0 * value if label.endswith("[%]") else value] for label, value in rows],
            title=f"{config.NOUN}loadtest: {config.label()}",
        )


def run_loadtest(config: LevelConfig) -> LoadTestResult:
    """Run one configuration end to end at its level; deterministic for a fixed seed.

    The die meter is armed after the load phase, so prefill time and
    chip work count toward neither the makespan nor die utilization.
    """
    driver = config.driver(config.session_config())
    driver.load()
    device = driver.device
    device.reset_stats()
    t0, busy0 = max(device.occupancy()), _busy_us(device)
    queue = SubmissionQueue(config.queue_depth, policy=config.admission)
    gate = GroupCommitGate(max_group=config.group_commit, log=driver.log)
    sessions = build_sessions(
        config.session_profile(), config.clients, config.logical_pages, config.seed
    )
    makespan = max(driver.drive(queue, gate, sessions, t0) - t0, 1e-9)
    channels = len(device.occupancy())
    busy = _busy_us(device) - busy0
    return LoadTestResult(
        config=config, counters=driver.counters(queue.stats, gate.stats), makespan_us=makespan,
        channels=channels, die_utilization=min(1.0, busy / (channels * makespan)),
        queue_stats=queue.stats, gate_stats=gate.stats, samples=driver.samples,
    )


#: Both levels run through the one skeleton; this is its name for
#: transaction-level callers.
run_txn_loadtest = run_loadtest


def sweep_queue_depth(config: LevelConfig, depths: list[int]) -> list[LoadTestResult]:
    """Rerun one configuration across queue depths (fresh stack each);
    every depth is validated before the first run starts."""
    if not depths:
        raise ReproError("sweep needs at least one queue depth")
    configs = [replace(config, queue_depth=depth) for depth in depths]
    for each in configs:
        each.validate()
    return [run_loadtest(each) for each in configs]


def format_sweep(results: list[LoadTestResult]) -> str:
    """The deterministic throughput-vs-queue-depth sweep table."""
    rows = [
        [result.config.queue_depth, result.throughput, result.percentiles["p50"],
         result.percentiles["p99"], 100.0 * result.die_utilization]
        for result in results
    ]
    config = results[0].config
    return format_table(
        ["queue depth", f"throughput [{config.UNIT}/s]", "p50 [us]", "p99 [us]",
         "die util [%]"],
        rows,
        title=f"queue-depth sweep: {config.label(with_depth=False)}",
    )
