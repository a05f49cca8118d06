"""The load-test harness: concurrent clients against one backend.

``repro loadtest`` builds a device, prefills every logical page (with an
erased delta tail, so appends are possible), then replays a seeded
multi-client load through the :class:`~repro.hostq.scheduler.HostScheduler`
and reports throughput plus end-to-end latency percentiles — the
concurrent-load methodology behind the paper's Figures 7-10 latency
CDFs, on the simulated stack.

End-to-end latency is completion time minus arrival time, per request;
percentiles are computed from the exact sample set (the telemetry
histogram is also fed, for export, but its bucketed quantiles are not
what the report prints).  Everything is deterministic for a fixed seed
and flag set: the report strings are byte-identical across runs, which
CI asserts.

The queue-depth sweep (:func:`sweep_queue_depth`) reruns one
configuration across depths; on a multi-die backend throughput rises
with depth while p99 grows, until die utilization saturates — the NCQ
story "How to Write to SSDs" tells, reproduced end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..analysis.cdf import CDF
from ..analysis.report import format_table
from ..errors import ReproError
from ..session import SessionConfig, backend_label, open_device
from ..telemetry.metrics import LATENCY_BUCKETS_US, MetricsRegistry
from ..workloads.sessions import PROFILES
from ._harness import (
    DieMeter,
    publish_totals,
    summarize,
    validate_common,
)
from .clients import ClosedLoopClient, OpenLoopArrivals, build_sessions
from .groupcommit import GroupCommitGate, GroupCommitStats
from .queueing import ADMISSION_POLICIES, QueueStats, SubmissionQueue
from .request import OpKind, Request
from .scheduler import HostScheduler

__all__ = [
    "LoadTestConfig",
    "LoadTestResult",
    "run_loadtest",
    "sweep_queue_depth",
    "format_sweep",
]


@dataclass(frozen=True)
class LoadTestConfig:
    """One load-test configuration (every field is CLI-settable)."""

    backend: str = "noftl"
    clients: int = 8
    queue_depth: int = 8
    arrival: str = "closed"
    seed: int = 7
    requests: int = 2000
    profile: str = "uniform"
    logical_pages: int = 512
    shards: int = 4
    #: Closed-loop mean think time between a completion and the client's
    #: next submission (exponential; 0 = maximum pressure).
    think_us: float = 0.0
    #: Open-loop Poisson arrival rate, requests per second.
    rate_rps: float = 20_000.0
    admission: str = "block"
    #: Commits batched per WAL force (1 = force every commit).
    group_commit: int = 8

    def validate(self) -> None:
        """Reject configurations the harness cannot run (ReproError)."""
        if self.arrival not in ("closed", "open"):
            raise ReproError(f"arrival must be 'closed' or 'open', got {self.arrival!r}")
        if self.admission not in ADMISSION_POLICIES:
            raise ReproError(f"admission must be one of {ADMISSION_POLICIES}")
        validate_common(self)
        if self.requests < 1:
            raise ReproError("need at least one request")
        if self.arrival == "open" and self.rate_rps <= 0.0:
            raise ReproError(f"arrival rate must be positive, got {self.rate_rps}")

    def label(self, with_depth: bool = True) -> str:
        """One-line run descriptor used in report titles."""
        depth = f"depth={self.queue_depth} " if with_depth else ""
        return (
            f"backend={backend_label(self)} clients={self.clients} {depth}"
            f"arrival={self.arrival} profile={self.profile} seed={self.seed}"
        )


class DeviceExecutor:
    """Turns queued requests into FlashDevice commands.

    Owns the per-page delta cursor: full writes re-arm a page's erased
    tail, deltas append into it left to right, and an exhausted tail (or
    a device veto) falls back to a full-page rewrite — the same
    write/append economy the storage engine's IPA manager implements,
    restated at the raw device level so the load test exercises GC and
    ISPP appends realistically.
    """

    def __init__(self, device, delta_area_bytes: int) -> None:
        self.device = device
        self.page_size = device.page_size
        self.tail = max(0, min(delta_area_bytes, self.page_size // 2))
        self.body = self.page_size - self.tail
        self._cursor: dict[int, int] = {}
        self.delta_fallbacks = 0

    def page_image(self, lpn: int, stamp: int) -> bytes:
        """A full-page image: patterned body plus an erased delta tail."""
        fill = (lpn * 31 + stamp) % 251
        return bytes([fill]) * self.body + b"\xff" * self.tail

    def prefill(self, logical_pages: int) -> None:
        """Materialize every logical page (load phase, clock at 0)."""
        for lpn in range(logical_pages):
            self.device.write(lpn, self.page_image(lpn, 0), 0.0)
            self._cursor[lpn] = 0

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


@dataclass
class LoadTestResult:
    """Everything one load-test run measured."""

    config: LoadTestConfig
    generated: int
    completed: int
    rejected: int
    makespan_us: float
    throughput_rps: float
    mean_latency_us: float
    max_latency_us: float
    percentiles: dict[str, float]
    kind_counts: dict[str, int]
    delta_fallbacks: int
    channels: int
    die_utilization: float
    queue_stats: QueueStats
    gate_stats: GroupCommitStats
    samples: list[float] = field(repr=False, default_factory=list)

    def cdf(self) -> CDF:
        """Latency CDF over the exact end-to-end samples."""
        return CDF.from_samples(list(self.samples))

    def to_dict(self) -> dict:
        """JSON-friendly summary (benchmark trajectory tracking)."""
        return {
            "backend": self.config.backend,
            "clients": self.config.clients,
            "queue_depth": self.config.queue_depth,
            "arrival": self.config.arrival,
            "profile": self.config.profile,
            "seed": self.config.seed,
            "generated": self.generated,
            "completed": self.completed,
            "rejected": self.rejected,
            "makespan_us": self.makespan_us,
            "throughput_rps": self.throughput_rps,
            "mean_latency_us": self.mean_latency_us,
            "max_latency_us": self.max_latency_us,
            "percentiles": dict(self.percentiles),
            "kind_counts": dict(self.kind_counts),
            "delta_fallbacks": self.delta_fallbacks,
            "channels": self.channels,
            "die_utilization": self.die_utilization,
            "holb_bypasses": self.queue_stats.holb_bypasses,
            "max_depth_used": self.queue_stats.max_depth_used,
            "commit_forces": self.gate_stats.forces,
            "commits_per_force": self.gate_stats.commits_per_force,
        }

    def report(self) -> str:
        """The deterministic human-readable report ``repro loadtest`` prints."""
        rows = [
            ["requests completed", self.completed],
            ["requests rejected", self.rejected],
            ["throughput [req/s]", self.throughput_rps],
            ["mean latency [us]", self.mean_latency_us],
        ]
        rows += [[f"{name} latency [us]", value] for name, value in self.percentiles.items()]
        rows += [
            ["max latency [us]", self.max_latency_us],
            ["queue depth used (max)", self.queue_stats.max_depth_used],
            ["head-of-line bypasses", self.queue_stats.holb_bypasses],
            ["delta fallbacks", self.delta_fallbacks],
            ["commit forces", self.gate_stats.forces],
            ["commits per force", self.gate_stats.commits_per_force],
            ["die channels", self.channels],
            ["die utilization [%]", 100.0 * self.die_utilization],
            ["makespan [ms]", self.makespan_us / 1000.0],
        ]
        return format_table(
            ["metric", "value"], rows, title=f"loadtest: {self.config.label()}"
        )


def run_loadtest(config: LoadTestConfig, registry: MetricsRegistry | None = None) -> LoadTestResult:
    """Run one configuration end to end; deterministic for a fixed seed."""
    config.validate()
    if registry is None:
        registry = MetricsRegistry()
    device = open_device(SessionConfig(
        backend=config.backend, logical_pages=config.logical_pages,
        shards=config.shards, seed=config.seed,
    ))
    profile = PROFILES[config.profile]
    executor = DeviceExecutor(device, profile.delta_area_bytes)
    executor.prefill(config.logical_pages)
    device.reset_stats()
    meter = DieMeter(device)
    t0 = meter.t0

    queue = SubmissionQueue(config.queue_depth, policy=config.admission)
    gate = GroupCommitGate(max_group=config.group_commit)
    sessions = build_sessions(
        profile, config.clients, config.logical_pages, config.seed
    )
    generated = 0
    samples: list[float] = []
    kind_counts = {kind.value: 0 for kind in OpKind}
    latency_hist = registry.histogram(
        "hostq_request_latency_us", buckets=LATENCY_BUCKETS_US,
        help="End-to-end request latency (completion minus arrival)",
    )

    def build_request(client: int, op: tuple[str, int, int]) -> Request:
        nonlocal generated
        kind_name, lpn, length = op
        generated += 1
        return Request(
            seq=generated, client=client, kind=OpKind(kind_name),
            lpn=lpn, length=length,
        )

    def record(request: Request, now: float) -> None:
        if not request.rejected:
            samples.append(request.latency_us)
            latency_hist.observe(request.latency_us)
            kind_counts[request.kind.value] += 1

    scheduler = HostScheduler(device, queue, executor.execute, gate=gate)

    if config.arrival == "closed":
        clients = [
            ClosedLoopClient(index, session, config.think_us, seed=config.seed)
            for index, session in enumerate(sessions)
        ]

        def on_complete(request: Request, now: float) -> None:
            record(request, now)
            if generated >= config.requests:
                return
            client = clients[request.client]
            delay = client.think()
            scheduler.schedule(now + delay, _closed_arrival(client))

        def _closed_arrival(client: ClosedLoopClient):
            def action(now: float) -> None:
                if generated >= config.requests:
                    return
                scheduler.submit(build_request(client.index, client.next_op()), now)

            return action

        scheduler.on_complete = on_complete
        for client in clients:
            scheduler.schedule(t0, _closed_arrival(client))
    else:
        arrivals = OpenLoopArrivals(sessions, config.rate_rps, seed=config.seed)

        def open_arrival(now: float) -> None:
            client, op = arrivals.next_op()
            scheduler.submit(build_request(client, op), now)
            if generated < config.requests:
                scheduler.schedule(now + arrivals.interarrival_us(), open_arrival)

        scheduler.on_complete = record
        scheduler.schedule(t0 + arrivals.interarrival_us(), open_arrival)

    makespan, channels, utilization = meter.stop(scheduler.run())
    completed = len(samples)
    rejected = len(scheduler.rejected)
    mean_latency, max_latency, percentiles = summarize(samples)

    publish_totals(registry, [
        ("hostq_requests_total",
         "Requests generated by the load clients", generated),
        ("hostq_completed_total",
         "Requests completed end to end", completed),
        ("hostq_rejected_total",
         "Requests refused by admission control", rejected),
        ("hostq_blocked_total",
         "Requests that waited behind backpressure", queue.stats.blocked),
        ("hostq_delta_fallbacks_total",
         "Delta requests degraded to full-page rewrites",
         executor.delta_fallbacks),
        ("hostq_commit_forces_total",
         "WAL forces issued by the commit gate", gate.stats.forces),
        ("hostq_holb_bypasses_total",
         "Dispatches that overtook a request stuck behind a busy die",
         queue.stats.holb_bypasses),
    ])

    return LoadTestResult(
        config=config,
        generated=generated,
        completed=completed,
        rejected=rejected,
        makespan_us=makespan,
        throughput_rps=completed / (makespan / 1e6),
        mean_latency_us=mean_latency,
        max_latency_us=max_latency,
        percentiles=percentiles,
        kind_counts=kind_counts,
        delta_fallbacks=executor.delta_fallbacks,
        channels=channels,
        die_utilization=utilization,
        queue_stats=queue.stats,
        gate_stats=gate.stats,
        samples=samples,
    )


def sweep_queue_depth(
    config: LoadTestConfig, depths: list[int]
) -> list[LoadTestResult]:
    """Rerun one configuration across queue depths (fresh device each)."""
    if not depths:
        raise ReproError("sweep needs at least one queue depth")
    return [
        run_loadtest(replace(config, queue_depth=depth)) for depth in depths
    ]


def format_sweep(results: list[LoadTestResult]) -> str:
    """The deterministic throughput-vs-queue-depth sweep table."""
    rows = [
        [
            result.config.queue_depth,
            result.throughput_rps,
            result.percentiles["p50"],
            result.percentiles["p99"],
            100.0 * result.die_utilization,
        ]
        for result in results
    ]
    config = results[0].config
    return format_table(
        ["queue depth", "throughput [req/s]", "p50 [us]", "p99 [us]", "die util [%]"],
        rows,
        title=f"queue-depth sweep: {config.label(with_depth=False)}",
    )
