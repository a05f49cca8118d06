"""The transaction executor: full engine transactions under the scheduler.

The transaction level of :mod:`repro.hostq.loadtest`, closer to the
paper's headline numbers than raw page operations: N concurrent clients
each run whole transactions — reads and WAL-logged updates through the
buffer pool, commit forces through group commit — and the end-to-end
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
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Any

from ..core.scheme import NxMScheme
from ..errors import ReproError
from ..storage.clock import DeferredClock
from ..storage.page_layout import HEADER_SIZE, SlottedPage
from ..storage.program import DeviceCommand
from ..session import SessionConfig, open_session
from ..workloads.sessions import PROFILES, ClientSession, SessionProfile
from .clients import ClosedLoopClient
from .groupcommit import GroupCommitGate, GroupCommitStats
from .loadtest import LevelConfig
from .queueing import QueueStats, SubmissionQueue
from .request import OpKind, Request
from .scheduler import HostScheduler

__all__ = ["TxnExecutor", "TxnLoadTestConfig"]

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
class TxnLoadTestConfig(LevelConfig):
    """The transaction level: whole engine transactions per client, on an
    engine that evicts eagerly, queued with blocking admission."""

    #: Total transactions across all clients.
    txns: int = 200
    scheme: NxMScheme = NxMScheme(2, 4)
    #: Buffer pool as a fraction of the logical pages (floored so every
    #: client can hold a pin plus headroom for the victim scan).
    buffer_fraction: float = 0.5
    #: Override of the profile's rollback fraction (``None`` = profile).
    rollback: float | None = None
    #: Override of the profile's ops per transaction (0 = profile; a
    #: profile without commit cadence falls back to 4).
    ops_per_txn: int = 0

    HEADER = ("profile", "scheme")
    NOUN, UNIT, THROUGHPUT = "txn ", "txn", "throughput_tps"
    HEAD = (
        ("transactions committed", "committed"),
        ("transactions aborted", "aborted"),
        ("transactions retried", "retried"),
        ("conflict waits", "conflict_waits"),
    )
    TAIL = (
        ("log forces", "log_forces"),
        ("commits grouped", "commits_grouped"),
        ("commits per force", "commits_per_force"),
        ("ipa flushes", "ipa_flushes"),
        ("oop flushes", "oop_flushes"),
        ("skipped flushes", "skipped_flushes"),
        ("buffer hit ratio [%]", "buffer_hit_ratio"),
    )

    def validate(self) -> None:
        """The shared checks, then the transaction level's."""
        super().validate()
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

    def session_profile(self) -> SessionProfile:
        """The profile with this run's ops-per-transaction override."""
        return replace(PROFILES[self.profile], ops_per_txn=self.effective_ops_per_txn())

    def stack_fields(self) -> dict[str, Any]:
        """The scheme, the buffer pool and the event loop's deferred clock."""
        return dict(
            scheme=self.scheme,
            buffer_pages=max(self.clients + 2, int(self.logical_pages * self.buffer_fraction)),
            clock=DeferredClock(),
        )

    def driver(self, stack: SessionConfig) -> TxnExecutor:
        """An engine built from ``stack``, under the transaction executor."""
        return TxnExecutor(open_session(stack).engine, stack.clock, self)


class TxnExecutor:
    """The transaction level's driver: N clients' transactions over one engine.

    The executor owns the per-LPN operation locks, the command-busy
    tracking, and the retry/rollback policy; the engine contributes the
    storage programs and the scheduler contributes time.
    """

    def __init__(self, engine, clock: DeferredClock, config: TxnLoadTestConfig) -> None:
        self.engine = engine
        self.device = engine.device
        #: The WAL the group-commit gate charges.
        self.log = engine.log
        self.clock = clock
        self.config = config
        self._rollback_fraction = (
            PROFILES[config.profile].rollback_fraction
            if config.rollback is None else config.rollback
        )
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

    def load(self) -> None:
        """The load phase: format every page as an empty slotted page
        (erased delta tail), so engine fetches decode cleanly."""
        area = self.config.scheme.area_size
        for lpn in range(self.config.logical_pages):
            page = SlottedPage.format(lpn, self.device.page_size, area)
            self.device.write(lpn, bytes(page.image), 0.0)

    def drive(self, queue: SubmissionQueue, gate: GroupCommitGate,
              sessions: list[ClientSession], t0: float) -> float:
        """Arm every client's first transaction at ``t0`` and run them all."""
        config = self.config
        self.clock.sync_to(t0)
        self.scheduler = HostScheduler(
            self.device, queue, self._execute, gate=gate,
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
        for client in range(len(sessions)):
            self.scheduler.schedule(t0, lambda now, c=client: self._start_txn(c))
        end = self.run()
        # Pin-leak assertion: every completed operation released its pins.
        self.engine.pool.assert_no_pins()
        return end

    def run(self) -> float:
        """Drain the event loop; returns the final simulated time."""
        return self.scheduler.run()

    def counters(self, queue: QueueStats, gate: GroupCommitStats) -> dict[str, Any]:
        """The transaction level's section of the result."""
        ipa = self.engine.ipa.stats
        return {
            "started": self.txns_started,
            "committed": self.txns_committed,
            "aborted": self.txns_aborted,
            "retried": self.txns_retried,
            "conflict_waits": self.conflict_waits,
            "log_forces": self.log.forces,
            "commits_grouped": self.log.commits_grouped,
            "commits_per_force": gate.commits_per_force,
            "ipa_flushes": ipa.ipa_flushes,
            "oop_flushes": ipa.oop_flushes,
            "skipped_flushes": ipa.skipped_flushes,
            "buffer_hit_ratio": self.engine.pool.stats.hit_ratio,
        }

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
