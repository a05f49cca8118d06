"""Restart recovery: repeat history, then roll back losers.

A compact ARIES-style restart (analysis / redo / undo) over the
retained write-ahead log:

* **Analysis** — partition transactions into winners (a ``COMMIT`` or
  ``ABORT`` record exists; aborted transactions already logged their
  compensations) and losers (in flight at the crash).
* **Redo** — repeat history with the function that made it: every
  page-modifying record is re-applied by
  :func:`~repro.storage.wal.apply_record`, the forward path's own page
  writer, unless the page's ``PageLSN`` shows the effect already reached
  flash.  Pages whose first materialization never happened are
  re-formatted by the engine's allocation formatter.
* **Undo** — losers' records are inverted newest-first through
  :meth:`StorageEngine.undo`, which the online abort uses too.  Each
  inverse logs a compensation record (CLR) carrying
  ``compensates=<undone LSN>``; on a restart *during* undo, analysis
  collects the already-compensated LSNs and skips them, and CLRs
  themselves are redo-only — so the undo pass is restartable and never
  double-applies an inverse.

IPA interacts with recovery exactly as Section 6.2 describes: a page
whose last materialization was a delta append is simply read back (the
manager applies the deltas during the load), and the undo writes are
tracked like any other change — given delta-area budget they will
themselves be flushed as In-Place Appends.

Scope notes (documented simplifications): the catalog (table
definitions, page ownership) is assumed to survive, as are checkpoints'
dirty-page tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StorageError
from .engine import StorageEngine
from .wal import PAGE_KINDS, LogKind, LogRecord, apply_record


@dataclass
class RecoveryReport:
    """What one restart pass did."""

    analyzed_records: int = 0
    winners: int = 0
    losers: int = 0
    redone: int = 0
    skipped_by_lsn: int = 0
    undone: int = 0
    #: Loser records skipped because a CLR already compensated them
    #: (non-zero only when a previous recovery crashed mid-undo).
    skipped_compensated: int = 0


def recover(engine: StorageEngine) -> RecoveryReport:
    """Run restart recovery on a crashed engine; returns a report."""
    if not engine.log.retain:
        raise StorageError("recovery requires a retained log (retain_log=True)")
    records = engine.log.records
    report = RecoveryReport(analyzed_records=len(records))

    finished: set[int] = set()
    seen: dict[int, list[LogRecord]] = {}
    for record in records:
        if record.kind in (LogKind.COMMIT, LogKind.ABORT):
            finished.add(record.txn_id)
        elif record.kind in PAGE_KINDS and record.txn_id != 0:
            seen.setdefault(record.txn_id, []).append(record)
    losers = {txn_id: recs for txn_id, recs in seen.items() if txn_id not in finished}
    report.winners = len(seen) - len(losers)
    report.losers = len(losers)

    crashkit = engine.crashkit
    for record in records:
        if record.kind in PAGE_KINDS:
            if crashkit is not None:
                crashkit.site("recovery.redo")
            if _redo(engine, record):
                report.redone += 1
            else:
                report.skipped_by_lsn += 1

    for txn_id in sorted(losers):
        loser_records = losers[txn_id]
        # LSNs a CLR already compensated: a previous recovery (or an
        # online abort) crashed mid-undo after rolling these back.
        compensated = {
            record.compensates
            for record in loser_records
            if record.compensates != -1
        }
        for record in reversed(loser_records):
            if record.compensates != -1:
                continue  # CLRs are redo-only; never undo an undo
            if record.lsn in compensated:
                report.skipped_compensated += 1
                continue
            if crashkit is not None:
                crashkit.site("recovery.undo")
            engine.undo(record)
            report.undone += 1
        engine.log.append(txn_id, LogKind.ABORT)

    for table in engine.tables.values():
        table.rebuild_index()
    engine.checkpoint()
    return report


def _redo(engine: StorageEngine, record: LogRecord) -> bool:
    """Re-apply one record if its page has not seen it; True when redone."""
    lpn = record.lpn
    if not engine.device.is_mapped(lpn) and lpn not in engine.pool:
        # The page never reached flash: recreate it empty and replay.
        engine.format_page(lpn)
    frame = engine.pin(lpn)
    page = frame.page
    try:
        if page.lsn >= record.lsn:
            return False
        apply_record(page, record.kind, record.slot, record.payload)
        page.set_lsn(record.lsn)
        return True
    finally:
        engine.unpin(lpn, dirty=True)
