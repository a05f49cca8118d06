"""Restartable undo: CLRs make rollback safe to crash and repeat."""

import pytest

from repro.core import NxMScheme
from repro.crashkit import CrashPoint, CrashScheduler
from repro.errors import PowerFailureError
from repro.storage import (
    Char,
    Column,
    EngineConfig,
    Int32,
    Int64,
    Schema,
    StorageEngine,
    recover,
)
from repro.storage.wal import LogKind
from repro.session import SessionConfig, open_device


def make_engine(buffer_pages=16, scheme=NxMScheme(2, 4)):
    device = open_device(SessionConfig(logical_pages=128, chips=4, page_size=1024))
    return StorageEngine(
        device,
        EngineConfig(buffer_pages=buffer_pages, scheme=scheme, retain_log=True),
    )


def simple_table(engine, rows=30):
    table = engine.create_table(
        "t",
        Schema([Column("k", Int32()), Column("v", Int64()), Column("p", Char(20))]),
        key=["k"],
    )
    txn = engine.begin()
    for i in range(rows):
        table.insert(txn, (i, 100, "x"))
    engine.commit(txn)
    engine.flush_all()
    return table


def crash_on(engine, *points):
    scheduler = CrashScheduler(list(points))
    engine.crashkit = scheduler
    return scheduler


class TestCompensationRecords:
    def test_online_abort_logs_clrs(self):
        engine = make_engine()
        table = simple_table(engine)
        txn = engine.begin()
        table.update(txn, table.lookup(1), {"v": 7})
        update_lsn = engine.log.records[-1].lsn
        engine.abort(txn)
        clrs = [r for r in engine.log.records if r.compensates != -1]
        assert [r.compensates for r in clrs] == [update_lsn]

    def test_recovery_undo_logs_clrs(self):
        engine = make_engine()
        table = simple_table(engine)
        loser = engine.begin()
        table.update(loser, table.lookup(1), {"v": 7})
        engine.flush_all()
        engine.crash()
        recover(engine)
        assert any(r.compensates != -1 for r in engine.log.records)
        assert table.read(table.lookup(1))[1] == 100


class TestCrashDuringUndo:
    def test_crash_mid_undo_then_recover_again(self):
        engine = make_engine()
        table = simple_table(engine)
        loser = engine.begin()
        for key in (1, 2, 3):
            table.update(loser, table.lookup(key), {"v": 1000 + key})
        engine.flush_all()
        engine.crash()
        crash_on(engine, CrashPoint(at_op=2, sites=("recovery.undo",)))
        with pytest.raises(PowerFailureError):
            recover(engine)
        # One inverse was applied and compensated before the failure.
        clrs_after_first = sum(
            1 for r in engine.log.records if r.compensates != -1
        )
        assert clrs_after_first == 1
        engine.crash()
        report = recover(engine)
        assert report.skipped_compensated == 1
        for key in (1, 2, 3):
            assert table.read(table.lookup(key))[1] == 100

    def test_double_restart_during_undo(self):
        engine = make_engine()
        table = simple_table(engine)
        loser = engine.begin()
        for key in range(1, 6):
            table.update(loser, table.lookup(key), {"v": 2000 + key})
        engine.flush_all()
        engine.crash()
        crash_on(
            engine,
            CrashPoint(at_op=2, sites=("recovery.undo",)),
            CrashPoint(at_op=2, sites=("recovery.undo",)),
        )
        with pytest.raises(PowerFailureError):
            recover(engine)
        engine.crash()
        with pytest.raises(PowerFailureError):
            recover(engine)
        engine.crash()
        report = recover(engine)
        assert report.skipped_compensated >= 2
        for key in range(1, 6):
            assert table.read(table.lookup(key))[1] == 100

    def test_no_double_undo_of_compensated_records(self):
        """An inverse applied twice would corrupt a counter-like field;
        prove each loser record is undone exactly once across restarts."""
        engine = make_engine()
        table = simple_table(engine)
        loser = engine.begin()
        table.update(loser, table.lookup(4), {"v": 999})
        table.update(loser, table.lookup(5), {"v": 888})
        engine.flush_all()
        engine.crash()
        crash_on(engine, CrashPoint(at_op=2, sites=("recovery.undo",)))
        with pytest.raises(PowerFailureError):
            recover(engine)
        engine.crash()
        first = recover(engine)
        engine.crash()
        second = recover(engine)
        # The loser finished in pass two; pass three sees only winners.
        assert second.losers == 0 and second.undone == 0
        assert first.undone + 1 == 2  # one inverse per pass, never more
        assert table.read(table.lookup(4))[1] == 100
        assert table.read(table.lookup(5))[1] == 100

    def test_crash_during_online_abort_then_recover(self):
        engine = make_engine()
        table = simple_table(engine)
        txn = engine.begin()
        table.update(txn, table.lookup(1), {"v": 111})
        table.update(txn, table.lookup(2), {"v": 222})
        engine.flush_all()
        crash_on(engine, CrashPoint(at_op=2, sites=("engine.undo",)))
        with pytest.raises(PowerFailureError):
            engine.abort(txn)
        engine.crash()
        engine.crashkit = None
        report = recover(engine)
        assert report.losers == 1
        assert report.skipped_compensated == 1  # abort's CLR counted
        assert table.read(table.lookup(1))[1] == 100
        assert table.read(table.lookup(2))[1] == 100

    def test_crash_during_redo_then_recover(self):
        engine = make_engine()
        table = simple_table(engine)
        txn = engine.begin()
        table.update(txn, table.lookup(3), {"v": 333})
        engine.commit(txn)
        engine.crash()
        crash_on(engine, CrashPoint(at_op=3, sites=("recovery.redo",)))
        with pytest.raises(PowerFailureError):
            recover(engine)
        engine.crash()
        recover(engine)
        assert table.read(table.lookup(3))[1] == 333

    def test_abort_record_written_once_per_loser(self):
        engine = make_engine()
        table = simple_table(engine)
        loser = engine.begin()
        table.update(loser, table.lookup(1), {"v": 1})
        engine.flush_all()
        engine.crash()
        recover(engine)
        aborts = [
            r for r in engine.log.records
            if r.kind is LogKind.ABORT and r.txn_id == loser.txn_id
        ]
        assert len(aborts) == 1
