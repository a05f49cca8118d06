"""End-to-end crash-recovery verification (the power-fail test rig).

The harness runs one deterministic transactional workload against a
fresh engine, pulls the plug at a scheduled operation (leaving torn
flash state behind), restarts, runs recovery — retrying if a second
scheduled failure hits recovery itself — and then diffs every record
the log says was committed against a shadow model replayed from the
same seeded script.  Any difference is a *divergence*: committed data
the stack lost or corrupted, or rolled-back data it resurrected.

A matrix run samples crash op-counts across the whole workload (probe
first, then stride), so one seeded invocation covers load, steady-state
updates, GC migrations, delta appends and the final flush.  Every layer
is exercised through the public :class:`~repro.ftl.device.FlashDevice`
protocol, so the same harness drives NoFTL, the black-box BlockSSD and
every shard of a ShardedDevice; each case's stack comes from
:func:`repro.session.open_session` with a small geometry (two chips per
controller, eight pages per block).  A matrix run reports only through
its :class:`CrashMatrixResult` (cases, crashes, divergences).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.scheme import NxMScheme
from ..errors import PowerFailureError
from ..session import SessionConfig, open_session
from ..storage.recovery import RecoveryReport, recover
from ..storage.schema import Char, Column, Int32, Int64, Schema
from ..storage.wal import LogKind
from .scheduler import CrashPoint, CrashScheduler


@dataclass
class CrashCase:
    """Outcome of one injected-crash run."""

    points: tuple[CrashPoint, ...]
    #: Site of the first injected failure; ``None`` when none fired
    #: (the scheduled op-count exceeded the workload's total ops).
    crash_site: str | None = None
    #: How many times ``recover()`` ran (>1 means a crash hit recovery).
    recovery_attempts: int = 0
    committed_txns: int = 0
    report: RecoveryReport | None = None
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class CrashMatrixResult:
    """Aggregate of a matrix run."""

    total_ops: int = 0
    cases: list[CrashCase] = field(default_factory=list)

    @property
    def crashes(self) -> int:
        return sum(1 for case in self.cases if case.crash_site is not None)

    @property
    def divergences(self) -> int:
        return sum(len(case.divergences) for case in self.cases)

    @property
    def ok(self) -> bool:
        return self.divergences == 0


class CrashTestHarness:
    """Deterministic power-fail injection against a full engine stack.

    Every case builds a *fresh* device and engine (small geometry: the
    point is crash coverage, not throughput), replays the same seeded
    transaction script, and crashes wherever the scheduler says.  The
    shadow model is pure Python — it shares no code with the recovery
    path it checks.
    """

    def __init__(
        self,
        backend: str = "noftl",
        shards: int = 4,
        scheme: NxMScheme = NxMScheme(2, 4),
        seed: int = 7,
        logical_pages: int = 128,
        page_size: int = 1024,
        buffer_pages: int = 8,
        txns: int = 40,
        rows: int = 100,
    ) -> None:
        self.backend = backend
        self.shards = shards
        self.scheme = scheme
        self.seed = seed
        self.logical_pages = logical_pages
        self.page_size = page_size
        self.buffer_pages = buffer_pages
        self.txns = txns
        self.rows = rows
        self._script_cache: list[list[tuple]] | None = None

    # ------------------------------------------------------------------
    # Workload script (generated once, replayed per case)
    # ------------------------------------------------------------------

    def script(self) -> list[list[tuple]]:
        """The seeded transaction script: txn 0 loads, the rest mutate.

        Ops are ``("insert", key, v, p)``, ``("update", key, v)`` and
        ``("delete", key)``; generation tracks the live-key set so every
        op is valid when the prefix before it has been applied.
        """
        if self._script_cache is not None:
            return self._script_cache
        rng = random.Random(self.seed)
        live = list(range(self.rows))
        script: list[list[tuple]] = [
            [("insert", key, 100 + key, f"row{key}") for key in live]
        ]
        next_key = self.rows
        for _ in range(self.txns):
            ops: list[tuple] = []
            for __ in range(rng.randint(1, 4)):
                draw = rng.random()
                if live and draw < 0.62:
                    key = live[rng.randrange(len(live))]
                    ops.append(("update", key, rng.randrange(1_000_000)))
                elif live and draw < 0.78:
                    key = live.pop(rng.randrange(len(live)))
                    ops.append(("delete", key))
                else:
                    key = next_key
                    next_key += 1
                    ops.append(("insert", key, rng.randrange(1_000_000), f"ins{key}"))
                    live.append(key)
            script.append(ops)
        self._script_cache = script
        return script

    def _replay_shadow(self, committed: set[int]) -> dict[int, tuple]:
        """Pure-Python ground truth: effects of the committed txns only."""
        shadow: dict[int, tuple] = {}
        for index, ops in enumerate(self.script()):
            if index not in committed:
                continue
            for op in ops:
                if op[0] == "insert":
                    shadow[op[1]] = (op[1], op[2], op[3])
                elif op[0] == "update":
                    row = shadow[op[1]]
                    shadow[op[1]] = (row[0], op[2], row[2])
                else:
                    del shadow[op[1]]
        return shadow

    # ------------------------------------------------------------------
    # Engine construction and workload execution
    # ------------------------------------------------------------------

    def _build(self, scheduler: CrashScheduler):
        engine = open_session(SessionConfig(
            backend=self.backend,
            shards=self.shards,
            logical_pages=self.logical_pages,
            chips=2,
            page_size=self.page_size,
            pages_per_block=8,
            scheme=self.scheme,
            buffer_pages=self.buffer_pages,
            engine={"retain_log": True},
        )).engine
        engine.device.bind_crashkit(scheduler)
        engine.crashkit = scheduler
        table = engine.create_table(
            "crash",
            Schema([Column("k", Int32()), Column("v", Int64()), Column("p", Char(12))]),
            key=["k"],
        )
        return engine, table

    def _run_script(self, engine, table, txn_index_of: dict[int, int]) -> None:
        for index, ops in enumerate(self.script()):
            txn = engine.begin()
            txn_index_of[txn.txn_id] = index
            for op in ops:
                if op[0] == "insert":
                    table.insert(txn, (op[1], op[2], op[3]))
                elif op[0] == "update":
                    table.update(txn, table.lookup(op[1]), {"v": op[2]})
                else:
                    table.delete(txn, table.lookup(op[1]))
            engine.commit(txn)
            # Periodic checkpoints spread flash traffic (and therefore
            # crashable operations) across the whole run instead of
            # bunching it all into the final flush.
            if index % 4 == 3:
                engine.checkpoint()
        engine.flush_all()

    def probe(self) -> int:
        """Total scheduler ops of an uninterrupted run (for striding)."""
        scheduler = CrashScheduler((), seed=self.seed)
        engine, table = self._build(scheduler)
        self._run_script(engine, table, {})
        return scheduler.total_ops

    # ------------------------------------------------------------------
    # One case
    # ------------------------------------------------------------------

    def run_case(self, points: tuple[CrashPoint, ...] | list[CrashPoint]) -> CrashCase:
        """Run the script, crash as scheduled, recover, verify."""
        case = CrashCase(points=tuple(points))
        scheduler = CrashScheduler(points, seed=self.seed)
        engine, table = self._build(scheduler)
        txn_index_of: dict[int, int] = {}
        try:
            self._run_script(engine, table, txn_index_of)
        except PowerFailureError as failure:
            case.crash_site = failure.site
            engine.crash()
            # Recovery itself may be scheduled to crash (double-crash
            # cases); each retry is a fresh restart of the same engine.
            for _attempt in range(len(scheduler.points) + 1):
                case.recovery_attempts += 1
                try:
                    case.report = recover(engine)
                    break
                except PowerFailureError:
                    engine.crash()
            else:
                case.divergences.append(
                    "recovery never completed within the scheduled failures"
                )
        except Exception as unexpected:  # the whole point is catching these
            case.divergences.append(
                f"unexpected {type(unexpected).__name__} during workload: {unexpected}"
            )
            return case
        scheduler.disarm()
        self._verify(engine, table, txn_index_of, case)
        return case

    def _verify(self, engine, table, txn_index_of: dict[int, int], case: CrashCase) -> None:
        committed_ids = {
            record.txn_id
            for record in engine.log.records
            if record.kind is LogKind.COMMIT
        }
        committed = {
            index for txn_id, index in txn_index_of.items() if txn_id in committed_ids
        }
        case.committed_txns = len(committed)
        shadow = self._replay_shadow(committed)
        try:
            actual = {values[0]: values for __, values in table.scan()}
        except Exception as unexpected:  # scan over recovered state must not fail
            case.divergences.append(
                f"unexpected {type(unexpected).__name__} during verification scan: "
                f"{unexpected}"
            )
            return
        for key, row in shadow.items():
            if key not in actual:
                case.divergences.append(f"committed key {key} missing after recovery")
            elif actual[key] != row:
                case.divergences.append(
                    f"committed key {key} diverged: expected {row}, found {actual[key]}"
                )
        for key in actual:
            if key not in shadow:
                case.divergences.append(
                    f"key {key} resurrected from an uncommitted transaction"
                )

    # ------------------------------------------------------------------
    # Matrix
    # ------------------------------------------------------------------

    def run_matrix(self, cases: int = 12, fraction: float = 0.5) -> CrashMatrixResult:
        """Sample crash op-counts across the whole workload and verify each.

        ``cases`` bounds the number of sampled op-counts (a probe run
        measures the total first); ``fraction`` is the per-pulse torn
        completion chance passed to every scheduled point.
        """
        result = CrashMatrixResult(total_ops=self.probe())
        if result.total_ops == 0 or cases <= 0:
            return result
        stride = max(1, result.total_ops // cases)
        for at_op in range(1, result.total_ops + 1, stride):
            case = self.run_case((CrashPoint(at_op=at_op, fraction=fraction),))
            result.cases.append(case)
        return result
