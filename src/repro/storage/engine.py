"""The storage engine: Shore-MT-shaped, device-agnostic, IPA-aware.

The engine programs against the :class:`~repro.ftl.device.FlashDevice`
protocol, so it runs unchanged on native NoFTL, on a black-box
:class:`~repro.ftl.blockdev.BlockSSD`, or on a
:class:`~repro.ftl.sharded.ShardedDevice` scale-out backend.

:class:`StorageEngine` wires together the buffer pool, the write-ahead
log, the transaction manager, heap tables, and the
:class:`~repro.core.manager.IPAManager` that decides how dirty pages
are materialized on flash.

The engine charges foreground time — CPU cost per record operation,
read latency on fetch misses, log forces on commit — to a
:class:`~repro.storage.clock.Clock`.  Standalone runs own a private
:class:`~repro.storage.clock.ScalarClock` (the original synchronous
behaviour); under :class:`~repro.hostq.txnexec.TxnExecutor` a
:class:`~repro.storage.clock.DeferredClock` follows the event loop
instead.  Background flushes (cleaner, checkpoints, evictions) do *not*
advance the clock but occupy the flash chips, so subsequent foreground
reads observe the contention — the mechanism behind the paper's latency
results.

I/O-bearing operations are written once, as resumable *storage
programs* (``pin_program``, ``commit_program``, ``read_program``,
``update_program``); the synchronous entry points drive them to
completion on the engine clock via
:func:`~repro.storage.program.run_on_clock`.

Logged page changes are written once too: table operations, raw byte
updates and undo compensations all go through
:meth:`StorageEngine.log_page_change`, and restart redo applies the
records it logged with the same :func:`~repro.storage.wal.apply_record`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.manager import IPAManager
from ..core.scheme import NxMScheme, SCHEME_OFF
from ..errors import StorageError
from ..ftl.device import FlashDevice
from ..ftl.region import IPAMode
from .buffer import BufferPool, Frame
from .clock import Clock, ScalarClock
from .heap import RID, Table
from .page_layout import SlottedPage
from .program import StorageProgram, log_force_command, run_on_clock
from .schema import Schema
from .txn import Transaction, TransactionManager
from .wal import LogKind, LogManager, LogRecord, apply_record, inverse_of

#: Simulated CPU time charged per record operation (µs).
CPU_COST_US = 5.0


@dataclass
class EngineConfig:
    """Tunables of one engine instance.

    ``eviction`` selects the paper's two Shore-MT configurations:
    ``"eager"`` (dirty threshold 12.5%, log reclaim at 25%) or
    ``"non-eager"`` (75% / 100%), see Section 8.4 and Tables 9/10.
    """

    buffer_pages: int = 256
    scheme: NxMScheme = SCHEME_OFF
    eviction: str = "eager"
    log_capacity_bytes: int = 16 * 1024 * 1024
    retain_log: bool = False
    ecc: bool = False
    #: Stamp an InnoDB-style page checksum on every flush (MySQL
    #: emulation; Shore-MT has none, so the default is off).
    page_checksum: bool = False

    @property
    def dirty_threshold(self) -> float:
        return 0.125 if self.eviction == "eager" else 0.75

    @property
    def log_reclaim_fraction(self) -> float:
        return 0.25 if self.eviction == "eager" else 1.0

    def __post_init__(self) -> None:
        if self.eviction not in ("eager", "non-eager"):
            raise StorageError(f"unknown eviction strategy {self.eviction!r}")


class StorageEngine:
    """ACID storage engine over any :class:`FlashDevice` backend."""

    def __init__(
        self,
        device: FlashDevice,
        config: EngineConfig | None = None,
        telemetry=None,
        clock: Clock | None = None,
    ) -> None:
        self.device = device
        self.config = config if config is not None else EngineConfig()
        #: The engine's simulated clock.  Standalone engines own a
        #: ScalarClock; a scheduler passes a DeferredClock so event time
        #: stays with the event loop.  All time charges go through this
        #: object (see the clock-discipline lint rule).
        self._clock: Clock = clock if clock is not None else ScalarClock()
        #: Telemetry handle (``repro.telemetry.Telemetry``); set via the
        #: constructor or ``Telemetry.attach_engine``, ``None`` when off.
        self.telemetry = telemetry
        #: Observers: fetch_observer(lpn), flush events flow through the
        #: IPA manager's observer (set via ``flush_observer``).
        self.fetch_observer: Callable[[int], None] | None = None
        self._flush_observers: list = []
        self.ipa = IPAManager(
            device,
            self.config.scheme,
            ecc_enabled=self.config.ecc,
            flush_observer=self._notify_flush,
            page_checksum=self.config.page_checksum,
        )
        self.pool = BufferPool(
            self.config.buffer_pages,
            loader=self._load,
            flusher=self._flush,
            dirty_threshold=self.config.dirty_threshold,
            flush_planner=self.ipa.plan_flush,
        )
        self.log = LogManager(
            capacity_bytes=self.config.log_capacity_bytes,
            retain=self.config.retain_log,
        )
        self.txns = TransactionManager()
        self.tables: dict[str, Table] = {}
        self._page_table: dict[int, Table] = {}
        self._region_cursors: dict[str, int] = {
            region.name: region.lpn_start for region in device.regions
        }
        #: Crash-injection handle (``repro.crashkit.CrashScheduler``);
        #: ``None`` keeps transaction paths free of injection work.  The
        #: harness sets it alongside ``device.bind_crashkit`` so the
        #: undo path can be interrupted too.
        self.crashkit = None
        self.checkpoints = 0
        self.foreground_read_time_us = 0.0
        self.foreground_reads = 0
        self._page_free_space_hint: int | None = None
        if telemetry is not None:
            telemetry.attach_engine(self)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------

    def add_flush_observer(self, observer) -> None:
        """Register a callback ``(lpn, kind, net, gross, overflowed)``."""
        self._flush_observers.append(observer)

    def _notify_flush(self, lpn: int, kind: str, net: int, gross: int, overflowed: bool) -> None:
        for observer in self._flush_observers:
            observer(lpn, kind, net, gross, overflowed)

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema,
        key: list[str] | None = None,
        region: str | None = None,
    ) -> Table:
        """Create a heap table, optionally placed into a NoFTL region."""
        if name in self.tables:
            raise StorageError(f"table {name!r} already exists")
        table = Table(self, name, schema, key=key)
        table.region = (
            self.device.region_named(region) if region else self.device.regions[0]
        )
        self.tables[name] = table
        return table

    def create_index(
        self,
        name: str,
        table_name: str,
        columns: list[str],
        region: str | None = None,
    ) -> "TableIndex":
        """Create a secondary B+-tree index over existing table columns.

        The index is built from a scan and then maintained on every
        mutation, including rollback; after a crash, recovery rebuilds
        it (index node pages are not WAL-logged — the standard
        non-logged-index-build trade-off).
        """
        from .secondary import TableIndex

        if table_name not in self.tables:
            raise StorageError(f"no table named {table_name!r}")
        table = self.tables[table_name]
        index = TableIndex(self, name, table, columns, region=region)
        for rid, values in table.scan():
            index.note_insert(values, rid)
        table.secondary_indexes.append(index)
        return index

    @property
    def clock(self) -> float:
        """Current simulated time (µs); read-only — charges go through
        the :class:`~repro.storage.clock.Clock` object."""
        return self._clock.now

    @property
    def page_size(self) -> int:
        return self.device.page_size

    @property
    def page_free_space_hint(self) -> int:
        """Free space of a freshly formatted page (for space planning)."""
        if self._page_free_space_hint is None:
            scratch = SlottedPage.format(
                0, self.page_size, self.config.scheme.area_size
            )
            self._page_free_space_hint = scratch.free_space
        return self._page_free_space_hint

    # ------------------------------------------------------------------
    # Page access (used by Table)
    # ------------------------------------------------------------------

    def pin(self, lpn: int) -> Frame:
        """Fetch and pin a page; foreground read latency hits the clock."""
        frame = self.pool.try_pin(lpn)
        if frame is not None:
            # Buffer hit: zero latency, so no foreground-read accounting
            # — exactly what pin_program does for a hitting fetch.
            return frame
        return run_on_clock(self.pin_program(lpn), self._clock)

    def pin_program(self, lpn: int) -> StorageProgram:
        """Resumable :meth:`pin`: yields the fetch's device commands and
        folds observed latency into the foreground-read accounting."""
        frame, latency = yield from self.pool.fetch_program(lpn)
        if latency:
            self.foreground_read_time_us += latency
            self.foreground_reads += 1
        return frame

    def unpin(self, lpn: int, dirty: bool) -> None:
        """Release a pin taken via :meth:`pin`."""
        self.pool.unpin(lpn, dirty)

    def loaded_pages(self) -> int:
        """Pages allocated so far across all regions (the loaded DB size).

        The paper's buffer-fraction protocol sizes the pool relative to
        the *initial* DB size; this is the public accessor harnesses use
        (``testbed.load_scaled``, the benchmark runner) instead of
        reaching into the per-region allocation cursors.
        """
        return sum(
            self._region_cursors[region.name] - region.lpn_start
            for region in self.device.regions
        )

    def allocate_page(self, table: Table) -> int:
        """Allocate and format the next page of a table's region."""
        region = table.region
        cursor = self._region_cursors[region.name]
        if cursor >= region.lpn_end:
            raise StorageError(
                f"region {region.name!r} is full ({region.config.logical_pages} pages)"
            )
        self._region_cursors[region.name] = cursor + 1
        self.format_page(cursor)
        self._page_table[cursor] = table
        return cursor

    def format_page(self, lpn: int) -> None:
        """Put a freshly formatted, dirty page into the pool.

        The one page-format rule, for allocation and for recovery's
        re-creation of a page that never reached flash.  Selective IPA
        (the paper's contribution II): pages of objects placed in a
        non-IPA region reserve **no** delta area — the space cost is
        only paid where appends can happen.
        """
        delta_size = (
            self.config.scheme.area_size
            if self.device.region_of(lpn).ipa_mode is not IPAMode.NONE
            else 0
        )
        page = SlottedPage.format(lpn, self.page_size, delta_size)
        self.pool.put_new(lpn, page, self.clock)
        self.pool.unpin(lpn, dirty=True)

    def charge_cpu(self) -> None:
        """Advance the clock by one record-operation CPU cost."""
        self._clock.advance(CPU_COST_US)

    def _load(self, lpn: int, now: float):
        if self.fetch_observer is not None:
            self.fetch_observer(lpn)
        image, slots_used, latency = self.ipa.load(lpn, now)
        return SlottedPage(image), slots_used, latency

    def _flush(self, frame: Frame, now: float):
        return self.ipa.flush(frame, now)

    def log_page_change(
        self, page: SlottedPage, lpn: int, slot: int, kind: LogKind, payload: tuple,
        txn: Transaction | None = None, compensates: LogRecord | None = None,
    ) -> LogRecord:
        """The one logged page mutation: apply, append, stamp the PageLSN.

        ``page`` is the caller's pinned page ``lpn``.  A forward change
        is chained to ``txn`` for rollback; an undo step passes the
        record it ``compensates`` instead, which makes the new record a
        CLR (never undone itself).  Nothing is logged when the change
        does not apply (e.g. :class:`~repro.errors.PageFullError`).
        """
        apply_record(page, kind, slot, payload)
        if compensates is not None:
            record = self.log.append(
                compensates.txn_id, kind, lpn, slot, payload, compensates.lsn
            )
        else:
            record = self.log.append(
                txn.txn_id if txn is not None else 0, kind, lpn, slot, payload
            )
        page.set_lsn(record.lsn)
        if txn is not None:
            txn.note_undo(record)
        return record

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction."""
        return self.txns.begin(self.log.next_lsn, self.clock)

    def commit(self, txn: Transaction) -> None:
        """Commit: append + force the log, then run maintenance."""
        run_on_clock(self.commit_program(txn), self._clock)

    def commit_program(self, txn: Transaction) -> StorageProgram:
        """Resumable :meth:`commit`: yields the log force as a command.

        Synchronous drivers execute it (``log.force()``, amortized
        group-commit accounting); the transaction executor routes it
        through the :class:`~repro.hostq.groupcommit.GroupCommitGate`
        instead, which charges the same log via ``note_force``.
        """
        txn.require_active()
        self.log.append(txn.txn_id, LogKind.COMMIT)
        yield log_force_command(self.log)
        self.txns.finish_commit(txn, self._clock.now)
        self.maintenance()

    def read_program(self, lpn: int) -> StorageProgram:
        """Resumable point read: pin the page, release it clean, charge
        one record-operation CPU cost."""
        yield from self.pin_program(lpn)
        self.pool.unpin(lpn, dirty=False)
        self.charge_cpu()

    def update_program(
        self, txn: Transaction, lpn: int, offset: int, payload: bytes
    ) -> StorageProgram:
        """Resumable raw byte update on one page, WAL-logged.

        Pins the page, patches ``payload`` at ``offset`` (the page
        tracks the changed bytes for the IPA flush path), appends an
        UPDATE record carrying the before-image for rollback, and
        releases the pin dirty.  The transaction-level load harness
        assembles whole transactions out of these; record-level access
        stays on the synchronous :class:`~repro.storage.heap.Table`
        paths.
        """
        txn.require_active()
        frame = yield from self.pin_program(lpn)
        page = frame.page
        try:
            old = bytes(page.image[offset : offset + len(payload)])
            record = self.log_page_change(
                page, lpn, -1, LogKind.UPDATE, ((offset, old, bytes(payload)),), txn
            )
        finally:
            self.pool.unpin(lpn, dirty=True)
        self.charge_cpu()
        return record.lsn

    def abort(self, txn: Transaction) -> None:
        """Roll back a transaction by applying its log records' inverses."""
        txn.require_active()
        for record in reversed(txn.undo):
            self.undo(record)
        self.log.append(txn.txn_id, LogKind.ABORT)
        self.txns.finish_abort(txn, self.clock)
        self.maintenance()

    def undo(self, record: LogRecord) -> None:
        """Undo one log record, writing a compensation record (CLR).

        The CLR carries ``compensates=record.lsn`` so a restart after a
        crash mid-rollback can tell which loser records were already
        undone and skip them (restartable undo).
        """
        if self.crashkit is not None:
            # One undo step is about to run: both online aborts and
            # recovery's undo pass funnel through here, so this one
            # window exercises crash-during-rollback everywhere.
            self.crashkit.site("engine.undo")
        lpn, slot = record.lpn, record.slot
        frame = self.pin(lpn)
        page = frame.page
        table = self._page_table.get(lpn)
        try:
            kind, payload = inverse_of(page, record)
            if table is None:
                self.log_page_change(page, lpn, slot, kind, payload, compensates=record)
            elif record.kind is LogKind.INSERT:
                table.row_removed(RID(lpn, slot), table.index_values(page, slot))
                self.log_page_change(page, lpn, slot, kind, payload, compensates=record)
            elif record.kind is LogKind.DELETE:
                self.log_page_change(page, lpn, slot, kind, payload, compensates=record)
                table.row_added(RID(lpn, slot), table.index_values(page, slot))
            else:
                before = table.index_values(page, slot)
                self.log_page_change(page, lpn, slot, kind, payload, compensates=record)
                table.row_changed(RID(lpn, slot), before, table.index_values(page, slot))
        finally:
            self.unpin(lpn, dirty=True)

    # ------------------------------------------------------------------
    # Maintenance: cleaner + log-space reclamation
    # ------------------------------------------------------------------

    def maintenance(self) -> None:
        """Run after each transaction: background cleaning, checkpoints."""
        self.pool.clean(self.clock)
        if self.log.space_consumed_fraction() >= self.config.log_reclaim_fraction:
            self.checkpoint()

    def checkpoint(self) -> int:
        """Flush every dirty page and reclaim log space."""
        flushed = self.pool.flush_all(self.clock)
        # A checkpoint is a durability barrier: commits still buffered in
        # an open commit group must hit the log before it is reclaimed.
        self._clock.advance(self.log.flush_group())
        self.log.note_checkpoint()
        self.checkpoints += 1
        return flushed

    def flush_all(self) -> int:
        """Force all dirty pages out (shutdown path)."""
        return self.pool.flush_all(self.clock)

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate a failure: lose the buffer pool, keep flash and log."""
        self.pool.drop_all()
        self.txns.active.clear()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def mean_foreground_read_us(self) -> float:
        if self.foreground_reads == 0:
            return 0.0
        return self.foreground_read_time_us / self.foreground_reads

    def stats_summary(self) -> dict:
        """One dict with the headline numbers of a run."""
        return {
            "clock_us": self.clock,
            "committed": self.txns.committed,
            "aborted": self.txns.aborted,
            "checkpoints": self.checkpoints,
            "buffer": self.pool.stats.__dict__ | {"hit_ratio": self.pool.stats.hit_ratio},
            "device": self.device.snapshot(),
            "ipa": self.ipa.stats.snapshot(),
        }
