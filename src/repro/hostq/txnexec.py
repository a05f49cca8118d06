"""The transaction executor: full engine transactions under the scheduler.

The device-level load test (:mod:`repro.hostq.loadtest`) drives raw page
operations; this module closes the gap to the paper's headline numbers,
which are *transaction-level*: N concurrent clients each run whole
transactions — reads and WAL-logged updates through the buffer pool,
commit forces through group commit — and the end-to-end transaction
latency includes queueing, frame-pin conflicts and commit batching.

The machinery is the storage-program refactor paying off: engine
operations are generators yielding typed
:class:`~repro.storage.program.DeviceCommand` items.  Standalone, they
run synchronously on a scalar clock; here, :class:`TxnExecutor` drives
the *same generators* one event at a time:

* yielded device commands become :class:`~repro.hostq.request.Request`
  objects flowing through the :class:`~repro.hostq.queueing.SubmissionQueue`
  (NCQ depth, head-of-line bypass, per-LPN ordering), and the program
  resumes with the observed end-to-end wait when its request completes;
* log forces route through the event-driven
  :class:`~repro.hostq.groupcommit.GroupCommitGate`, which charges the
  engine's own :class:`~repro.storage.wal.LogManager` via ``note_force``
  — one group-commit accounting, two scheduling disciplines;
* CPU charges accrue on a :class:`~repro.storage.clock.DeferredClock`
  and are drained into event delays, so simulated time has exactly one
  owner: the event heap.

Concurrency control is deliberately simple and deterministic: a
transaction acquires a per-LPN operation lock around each page
operation (released before the next op), and an LPN with queued or
in-flight device commands cannot be acquired until they drain — which
is what makes a re-fetch racing a queued eviction write-back
impossible.  Rollbacks (deliberate or failure-driven) acquire their
undo set in sorted LPN order before undoing; operations never wait
while holding a lock, so the lock graph is cycle-free.

Everything is deterministic for a fixed seed: same-seed reports are
byte-identical across runs and backends are exercised identically,
which CI asserts with a cmp rerun.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace

from ..analysis.report import format_table
from ..core.scheme import NxMScheme, SCHEME_OFF
from ..errors import ReproError
from ..storage.clock import DeferredClock
from ..storage.page_layout import HEADER_SIZE, SlottedPage
from ..storage.program import DeviceCommand
from ..session import SessionConfig, backend_label, open_session
from ..workloads.sessions import PROFILES, ClientSession
from ._harness import DieMeter, summarize, validate_common
from .clients import ClosedLoopClient, build_sessions
from .groupcommit import GroupCommitGate
from .queueing import SubmissionQueue
from .request import OpKind, Request
from .scheduler import HostScheduler

__all__ = [
    "TxnExecutor",
    "TxnLoadTestConfig",
    "TxnLoadTestResult",
    "run_txn_loadtest",
]

#: Bytes patched by a "write" (non-delta) update op — large enough to
#: overflow any practical [N x M] budget, so it materializes as an
#: out-of-place page write, mirroring the full-page rewrites of the
#: device-level harness.
_WRITE_PATCH_BYTES = 128


class _Acquire:
    """Sentinel a transaction program yields to take an LPN's op lock."""

    __slots__ = ("lpn",)

    def __init__(self, lpn: int) -> None:
        self.lpn = lpn


class _Release:
    """Sentinel a transaction program yields to drop an LPN's op lock."""

    __slots__ = ("lpn",)

    def __init__(self, lpn: int) -> None:
        self.lpn = lpn


class _TxnCtx:
    """One transaction attempt in flight through the executor."""

    __slots__ = (
        "client", "ops", "rollback", "start_us", "gen", "txn",
        "held", "retries", "recovering",
    )

    def __init__(self, client: int, ops: list, rollback: bool, start_us: float) -> None:
        self.client = client
        self.ops = ops
        self.rollback = rollback
        self.start_us = start_us
        self.gen = None
        self.txn = None
        self.held: set[int] = set()
        self.retries = 0
        self.recovering = False


@dataclass(frozen=True)
class TxnLoadTestConfig:
    """One transaction-level load-test configuration."""

    backend: str = "noftl"
    clients: int = 4
    queue_depth: int = 8
    seed: int = 7
    #: Total transactions across all clients.
    txns: int = 200
    profile: str = "tpcb"
    logical_pages: int = 256
    shards: int = 4
    scheme: NxMScheme = SCHEME_OFF
    #: Buffer pool as a fraction of the logical pages (floored so every
    #: client can hold a pin plus headroom for the victim scan).
    buffer_fraction: float = 0.5
    eviction: str = "eager"
    think_us: float = 0.0
    #: Commits batched per WAL force (gate max_group).
    group_commit: int = 8
    #: Override of the profile's rollback fraction (``None`` = profile).
    rollback: float | None = None
    #: Override of the profile's ops per transaction (0 = profile; a
    #: profile without commit cadence falls back to 4).
    ops_per_txn: int = 0

    def validate(self) -> None:
        """Reject configurations the harness cannot run (ReproError)."""
        validate_common(self)
        if self.txns < 1:
            raise ReproError("need at least one transaction")
        if self.ops_per_txn < 0:
            raise ReproError(f"ops per transaction must be >= 0, got {self.ops_per_txn}")
        if not 0.0 < self.buffer_fraction <= 1.0:
            raise ReproError("buffer_fraction must be in (0, 1]")
        if self.rollback is not None and not 0.0 <= self.rollback <= 1.0:
            raise ReproError("rollback fraction must be in [0, 1]")

    def effective_ops_per_txn(self) -> int:
        """Ops per transaction after profile defaults and overrides."""
        return self.ops_per_txn or PROFILES[self.profile].ops_per_txn or 4

    def rollback_fraction(self) -> float:
        """Deliberate-rollback fraction after profile defaults."""
        if self.rollback is not None:
            return self.rollback
        return PROFILES[self.profile].rollback_fraction

    def label(self) -> str:
        """One-line run descriptor used in report titles."""
        return (
            f"backend={backend_label(self)} clients={self.clients} "
            f"depth={self.queue_depth} "
            f"profile={self.profile} scheme={self.scheme} seed={self.seed}"
        )


class TxnExecutor:
    """Interleaves N clients' transactions over one scheduled engine.

    The executor owns the per-LPN operation locks, the command-busy
    tracking, and the retry/rollback policy; the engine contributes the
    storage programs and the scheduler contributes time.
    """

    def __init__(
        self,
        engine,
        clock: DeferredClock,
        queue: SubmissionQueue,
        gate: GroupCommitGate,
        sessions: list[ClientSession],
        config: TxnLoadTestConfig,
    ) -> None:
        self.engine = engine
        self.clock = clock
        self.config = config
        self.scheduler = HostScheduler(
            engine.device, queue, self._execute, gate=gate,
            on_complete=self._on_complete,
        )
        self._clients = [
            ClosedLoopClient(index, session, config.think_us, seed=config.seed)
            for index, session in enumerate(sessions)
        ]
        self._rollback_rngs = [
            random.Random(config.seed * 9_176_087 + index + 1)
            for index in range(len(sessions))
        ]
        self._rollback_fraction = config.rollback_fraction()
        #: lpn -> owning transaction context (operation lock).
        self._busy_ops: dict[int, _TxnCtx] = {}
        #: lpn -> queued/in-flight device command count.
        self._busy_cmds: dict[int, int] = {}
        #: lpn -> FIFO of contexts waiting to acquire.
        self._waiters: dict[int, deque[_TxnCtx]] = {}
        self._next_seq = 0
        self.txns_started = 0
        self.txns_committed = 0
        self.txns_aborted = 0
        self.txns_retried = 0
        self.conflict_waits = 0
        #: End-to-end latency (µs) of every *committed* transaction.
        self.samples: list[float] = []

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------

    def start(self, t0: float) -> None:
        """Arm every client's first transaction at time ``t0``."""
        for client in range(len(self._clients)):
            self.scheduler.schedule(
                t0, lambda now, c=client: self._start_txn(c)
            )

    def run(self) -> float:
        """Drain the event loop; returns the final simulated time."""
        return self.scheduler.run()

    # ------------------------------------------------------------------
    # Transaction assembly
    # ------------------------------------------------------------------

    def _assemble(self, client: int) -> list:
        """The client's next transaction: session ops up to its commit."""
        session = self._clients[client].session
        ops = []
        while True:
            kind, lpn, length = session.next_op()
            if kind == "commit":
                if ops:
                    return ops
                continue
            ops.append((kind, lpn, length))

    def _start_txn(self, client: int) -> None:
        if self.txns_started >= self.config.txns:
            return
        self.txns_started += 1
        ops = self._assemble(client)
        rollback = (
            self._rollback_rngs[client].random() < self._rollback_fraction
        )
        ctx = _TxnCtx(client, ops, rollback, self.scheduler.now)
        ctx.gen = self._txn_program(ctx)
        self._step(ctx, None)

    def _txn_program(self, ctx: _TxnCtx):
        """One transaction as a resumable program over engine programs."""
        engine = self.engine
        txn = engine.begin()
        ctx.txn = txn
        for op_index, (kind, lpn, length) in enumerate(ctx.ops):
            yield _Acquire(lpn)
            if kind == "read":
                yield from engine.read_program(lpn)
            else:
                patch_len = length if kind == "delta" else _WRITE_PATCH_BYTES
                offset, payload = self._patch(lpn, patch_len, op_index, txn.txn_id)
                yield from engine.update_program(txn, lpn, offset, payload)
            yield _Release(lpn)
        if ctx.rollback:
            yield from self._rollback_steps(ctx, txn)
            return "aborted"
        yield from engine.commit_program(txn)
        return "committed"

    def _patch(
        self, lpn: int, length: int, op_index: int, txn_id: int
    ) -> tuple[int, bytes]:
        """A deterministic byte patch inside the page's record body."""
        window = (
            self.engine.page_size - self.engine.config.scheme.area_size - HEADER_SIZE
        )
        length = max(1, min(length, window))
        span = window - length + 1
        offset = HEADER_SIZE + (lpn * 2_654_435_761 + op_index * 97 + txn_id * 13) % span
        payload = bytes((lpn + txn_id + op_index + i) % 251 for i in range(length))
        return offset, payload

    def _rollback_steps(self, ctx: _TxnCtx, txn):
        """Undo a transaction: quiesce its undo pages, then roll back.

        The undo set is acquired in sorted LPN order *before* the
        synchronous :meth:`~repro.storage.engine.StorageEngine.abort`
        runs, which waits out any queued write-backs on those pages —
        the rollback must not read a page whose eviction flush is still
        in the submission queue.  Rollback I/O itself is synchronous
        (it occupies the chips but bypasses the queue), a deliberate
        simplification for a rare path.
        """
        lpns = sorted(
            {record.lpn for record in txn.undo if record.lpn >= 0} - ctx.held
        )
        for lpn in lpns:
            yield _Acquire(lpn)
        self.engine.abort(txn)
        for lpn in lpns:
            yield _Release(lpn)

    def _recovery_program(self, ctx: _TxnCtx):
        """Roll back a failed attempt so it can retry or give up."""
        txn = ctx.txn
        if txn is not None and txn.is_active:
            yield from self._rollback_steps(ctx, txn)
        return "recovered"

    # ------------------------------------------------------------------
    # Program driving
    # ------------------------------------------------------------------

    def _step(self, ctx: _TxnCtx, send_value) -> None:
        """Advance one program until it blocks, finishes, or fails."""
        scheduler = self.scheduler
        while True:
            self.clock.sync_to(scheduler.now)
            try:
                item = ctx.gen.send(send_value)
            except StopIteration as stop:
                outcome = stop.value
                pending = self.clock.take_pending()
                if pending > 0:
                    scheduler.schedule(
                        scheduler.now + pending,
                        lambda now, o=outcome: self._finish(ctx, o),
                    )
                else:
                    self._finish(ctx, outcome)
                return
            except ReproError:
                self.clock.take_pending()
                self._recover(ctx)
                return
            pending = self.clock.take_pending()
            if pending > 0:
                # CPU (or other foreground) time accrued before this
                # yield: realize it as an event delay, then handle the
                # yielded item at its true time.
                scheduler.schedule(
                    scheduler.now + pending,
                    lambda now, i=item: self._resume_item(ctx, i),
                )
                return
            advanced, send_value = self._handle_item(ctx, item)
            if not advanced:
                return

    def _resume_item(self, ctx: _TxnCtx, item) -> None:
        advanced, send_value = self._handle_item(ctx, item)
        if advanced:
            self._step(ctx, send_value)

    def _handle_item(self, ctx: _TxnCtx, item) -> tuple[bool, object]:
        """Process one yielded item; returns (advance now?, send value)."""
        if isinstance(item, _Acquire):
            lpn = item.lpn
            if lpn in ctx.held:
                return True, None
            if lpn not in self._busy_ops and not self._busy_cmds.get(lpn):
                self._busy_ops[lpn] = ctx
                ctx.held.add(lpn)
                return True, None
            self.conflict_waits += 1
            self._waiters.setdefault(lpn, deque()).append(ctx)
            return False, None
        if isinstance(item, _Release):
            self._release(ctx, item.lpn)
            return True, None
        self._submit_command(ctx, item)
        return False, None

    def _release(self, ctx: _TxnCtx, lpn: int) -> None:
        ctx.held.discard(lpn)
        if self._busy_ops.get(lpn) is ctx:
            del self._busy_ops[lpn]
        self._wake(lpn)

    def _wake(self, lpn: int) -> None:
        """Grant the LPN to its oldest waiter if it is now fully free."""
        waiters = self._waiters.get(lpn)
        if not waiters:
            return
        if lpn in self._busy_ops or self._busy_cmds.get(lpn):
            return
        ctx = waiters.popleft()
        if not waiters:
            del self._waiters[lpn]
        self._busy_ops[lpn] = ctx
        ctx.held.add(lpn)
        self.scheduler.schedule(
            self.scheduler.now, lambda now, c=ctx: self._step(c, None)
        )

    def _submit_command(self, ctx: _TxnCtx, command: DeviceCommand) -> None:
        self._next_seq += 1
        request = Request(
            seq=self._next_seq, client=ctx.client,
            kind=command.kind, lpn=command.lpn, command=command, ctx=ctx,
        )
        if command.lpn >= 0 and command.kind is not OpKind.COMMIT:
            self._busy_cmds[command.lpn] = self._busy_cmds.get(command.lpn, 0) + 1
        self.scheduler.submit(request, self.scheduler.now)

    def _execute(self, request: Request, now: float) -> float:
        """Scheduler executor hook: run the request's device command."""
        return request.command.run(now)

    def _on_complete(self, request: Request, now: float) -> None:
        command = request.command
        if command.lpn >= 0 and command.kind is not OpKind.COMMIT:
            remaining = self._busy_cmds[command.lpn] - 1
            if remaining:
                self._busy_cmds[command.lpn] = remaining
            else:
                del self._busy_cmds[command.lpn]
                self._wake(command.lpn)
        self._step(request.ctx, now - request.arrival_us)

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------

    def _recover(self, ctx: _TxnCtx) -> None:
        """A program raised: release locks, roll back, maybe retry."""
        for lpn in sorted(ctx.held):
            self._release(ctx, lpn)
        if ctx.recovering:
            # Recovery itself failed (pathological, e.g. pool exhausted
            # while undoing): give the transaction up for good.
            if ctx.txn is not None and ctx.txn.is_active:
                self.engine.txns.finish_abort(ctx.txn, self.engine.clock)
            self._finish(ctx, "failed")
            return
        ctx.recovering = True
        ctx.gen = self._recovery_program(ctx)
        self._step(ctx, None)

    def _finish(self, ctx: _TxnCtx, outcome) -> None:
        now = self.scheduler.now
        if outcome == "recovered":
            if ctx.retries < 1:
                # One fresh attempt, same ops, original start time — the
                # reported latency includes the failed attempt.
                self.txns_retried += 1
                ctx.retries += 1
                ctx.recovering = False
                ctx.txn = None
                ctx.gen = self._txn_program(ctx)
                self._step(ctx, None)
                return
            self.txns_aborted += 1
        elif outcome == "committed":
            self.txns_committed += 1
            self.samples.append(now - ctx.start_us)
        else:  # "aborted" (deliberate rollback) or "failed"
            self.txns_aborted += 1
        client = ctx.client
        delay = self._clients[client].think()
        self.scheduler.schedule(
            now + delay, lambda t, c=client: self._start_txn(c)
        )


@dataclass
class TxnLoadTestResult:
    """Everything one transaction-level load-test run measured."""

    config: TxnLoadTestConfig
    started: int
    committed: int
    aborted: int
    retried: int
    conflict_waits: int
    makespan_us: float
    throughput_tps: float
    mean_latency_us: float
    max_latency_us: float
    percentiles: dict[str, float]
    log_forces: int
    commits_grouped: int
    commits_per_force: float
    ipa_flushes: int
    oop_flushes: int
    skipped_flushes: int
    buffer_hit_ratio: float
    channels: int
    die_utilization: float
    samples: list[float] = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        """JSON-friendly summary (benchmark trajectory tracking)."""
        return {
            "backend": self.config.backend,
            "clients": self.config.clients,
            "queue_depth": self.config.queue_depth,
            "profile": self.config.profile,
            "scheme": str(self.config.scheme),
            "seed": self.config.seed,
            "started": self.started,
            "committed": self.committed,
            "aborted": self.aborted,
            "retried": self.retried,
            "conflict_waits": self.conflict_waits,
            "makespan_us": self.makespan_us,
            "throughput_tps": self.throughput_tps,
            "mean_latency_us": self.mean_latency_us,
            "max_latency_us": self.max_latency_us,
            "percentiles": dict(self.percentiles),
            "log_forces": self.log_forces,
            "commits_grouped": self.commits_grouped,
            "commits_per_force": self.commits_per_force,
            "ipa_flushes": self.ipa_flushes,
            "oop_flushes": self.oop_flushes,
            "skipped_flushes": self.skipped_flushes,
            "buffer_hit_ratio": self.buffer_hit_ratio,
            "channels": self.channels,
            "die_utilization": self.die_utilization,
        }

    def report(self) -> str:
        """The deterministic report ``repro loadtest --level txn`` prints."""
        rows = [
            ["transactions committed", self.committed],
            ["transactions aborted", self.aborted],
            ["transactions retried", self.retried],
            ["conflict waits", self.conflict_waits],
            ["throughput [txn/s]", self.throughput_tps],
            ["mean txn latency [us]", self.mean_latency_us],
        ]
        rows += [
            [f"{name} txn latency [us]", value]
            for name, value in self.percentiles.items()
        ]
        rows += [
            ["max txn latency [us]", self.max_latency_us],
            ["log forces", self.log_forces],
            ["commits grouped", self.commits_grouped],
            ["commits per force", self.commits_per_force],
            ["ipa flushes", self.ipa_flushes],
            ["oop flushes", self.oop_flushes],
            ["skipped flushes", self.skipped_flushes],
            ["buffer hit ratio [%]", 100.0 * self.buffer_hit_ratio],
            ["die channels", self.channels],
            ["die utilization [%]", 100.0 * self.die_utilization],
            ["makespan [ms]", self.makespan_us / 1000.0],
        ]
        return format_table(
            ["metric", "value"], rows, title=f"txn loadtest: {self.config.label()}"
        )


def run_txn_loadtest(config: TxnLoadTestConfig) -> TxnLoadTestResult:
    """Run one transaction-level configuration end to end.

    Deterministic for a fixed seed: the report is byte-identical across
    runs on every backend.
    """
    config.validate()
    profile = dataclass_replace(
        PROFILES[config.profile], ops_per_txn=config.effective_ops_per_txn()
    )
    clock = DeferredClock()
    buffer_pages = max(
        config.clients + 2, int(config.logical_pages * config.buffer_fraction)
    )
    session = open_session(SessionConfig(
        backend=config.backend,
        logical_pages=config.logical_pages,
        shards=config.shards,
        scheme=config.scheme,
        buffer_pages=buffer_pages,
        eviction=config.eviction,
        clock=clock,
        seed=config.seed,
    ))
    device, engine = session.device, session.engine
    # Load phase: materialize every page as a formatted, empty slotted
    # page (erased delta tail) so engine fetches decode cleanly.
    area = config.scheme.area_size
    for lpn in range(config.logical_pages):
        page = SlottedPage.format(lpn, device.page_size, area)
        device.write(lpn, bytes(page.image), 0.0)
    device.reset_stats()
    meter = DieMeter(device)
    clock.sync_to(meter.t0)

    queue = SubmissionQueue(config.queue_depth, policy="block")
    gate = GroupCommitGate(max_group=config.group_commit, log=engine.log)
    sessions = build_sessions(
        profile, config.clients, config.logical_pages, config.seed
    )
    executor = TxnExecutor(engine, clock, queue, gate, sessions, config)
    executor.start(meter.t0)
    end = executor.run()
    # Pin-leak assertion: every completed operation released its pins.
    engine.pool.assert_no_pins()

    makespan, channels, utilization = meter.stop(end)
    committed = executor.txns_committed
    mean_latency, max_latency, percentiles = summarize(executor.samples)

    log = engine.log
    return TxnLoadTestResult(
        config=config,
        started=executor.txns_started,
        committed=committed,
        aborted=executor.txns_aborted,
        retried=executor.txns_retried,
        conflict_waits=executor.conflict_waits,
        makespan_us=makespan,
        throughput_tps=committed / (makespan / 1e6),
        mean_latency_us=mean_latency,
        max_latency_us=max_latency,
        percentiles=percentiles,
        log_forces=log.forces,
        commits_grouped=log.commits_grouped,
        commits_per_force=gate.stats.commits_per_force,
        ipa_flushes=engine.ipa.stats.ipa_flushes,
        oop_flushes=engine.ipa.stats.oop_flushes,
        skipped_flushes=engine.ipa.stats.skipped_flushes,
        buffer_hit_ratio=engine.pool.stats.hit_ratio,
        channels=channels,
        die_utilization=utilization,
        samples=list(executor.samples),
    )
