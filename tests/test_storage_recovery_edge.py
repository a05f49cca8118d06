"""Recovery edge cases beyond the basic scenarios."""

import pytest

from repro.core import NxMScheme
from repro.errors import RecordNotFoundError
from repro.storage import (
    Char,
    Column,
    EngineConfig,
    Int32,
    Int64,
    Schema,
    StorageEngine,
    VarChar,
    recover,
)
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


class TestMultipleLosers:
    def test_two_concurrent_losers(self):
        engine = make_engine()
        table = simple_table(engine)
        t1 = engine.begin()
        t2 = engine.begin()
        table.update(t1, table.lookup(1), {"v": 111})
        table.update(t2, table.lookup(2), {"v": 222})
        engine.flush_all()
        engine.crash()
        report = recover(engine)
        assert report.losers == 2
        assert table.read(table.lookup(1))[1] == 100
        assert table.read(table.lookup(2))[1] == 100

    def test_winner_between_losers(self):
        engine = make_engine()
        table = simple_table(engine)
        loser1 = engine.begin()
        table.update(loser1, table.lookup(1), {"v": 1})
        winner = engine.begin()
        table.update(winner, table.lookup(2), {"v": 2})
        engine.commit(winner)
        loser2 = engine.begin()
        table.update(loser2, table.lookup(3), {"v": 3})
        engine.crash()
        recover(engine)
        assert table.read(table.lookup(1))[1] == 100
        assert table.read(table.lookup(2))[1] == 2
        assert table.read(table.lookup(3))[1] == 100

    def test_loser_touching_many_pages(self):
        engine = make_engine()
        table = simple_table(engine, rows=60)
        loser = engine.begin()
        for i in range(0, 60, 3):
            table.update(loser, table.lookup(i), {"v": -i})
        engine.flush_all()
        engine.crash()
        recover(engine)
        for i in range(60):
            assert table.read(table.lookup(i))[1] == 100


class TestOnlineAbortThenCrash:
    def test_aborted_txn_stays_aborted_after_crash(self):
        """The online abort logged compensations; recovery replays them."""
        engine = make_engine()
        table = simple_table(engine)
        txn = engine.begin()
        table.update(txn, table.lookup(5), {"v": 999})
        engine.abort(txn)
        engine.crash()
        report = recover(engine)
        assert report.losers == 0  # the abort completed online
        assert table.read(table.lookup(5))[1] == 100


class TestStructuralOps:
    def test_committed_delete_survives(self):
        engine = make_engine()
        table = simple_table(engine)
        txn = engine.begin()
        table.delete(txn, table.lookup(4))
        engine.commit(txn)
        engine.crash()
        recover(engine)
        with pytest.raises(RecordNotFoundError):
            table.lookup(4)
        assert table.row_count == 29

    def test_uncommitted_delete_rolled_back(self):
        engine = make_engine()
        table = simple_table(engine)
        txn = engine.begin()
        table.delete(txn, table.lookup(4))
        engine.flush_all()
        engine.crash()
        recover(engine)
        assert table.read(table.lookup(4)) == (4, 100, "x")

    def test_replace_record_redo(self):
        engine = make_engine()
        schema = Schema([Column("k", Int32()), Column("d", VarChar(200))])
        table = engine.create_table("blobs", schema, key=["k"])
        txn = engine.begin()
        rid = table.insert(txn, (1, b"small"))
        engine.commit(txn)
        txn = engine.begin()
        table.update(txn, rid, {"d": b"a-much-longer-payload-than-before"})
        engine.commit(txn)
        engine.crash()  # replacement never flushed
        recover(engine)
        assert table.read(table.lookup(1))[1] == b"a-much-longer-payload-than-before"

    def test_slot_reuse_across_crash(self):
        engine = make_engine()
        table = simple_table(engine, rows=10)
        txn = engine.begin()
        victim = table.lookup(3)
        table.delete(txn, victim)
        table.insert(txn, (100, 1, "new"))  # likely reuses the slot
        engine.commit(txn)
        engine.crash()
        recover(engine)
        assert table.read(table.lookup(100))[1] == 1
        with pytest.raises(RecordNotFoundError):
            table.lookup(3)


def full_page_of_long_rows(engine):
    """One heap page packed with (k, 200-byte s) rows, committed."""
    schema = Schema([Column("k", Int32()), Column("s", VarChar(200))])
    table = engine.create_table("docs", schema, key=["k"])
    txn = engine.begin()
    k = 0
    while len(table.pages) < 2:
        table.insert(txn, (k, "x" * 200))
        k += 1
    engine.commit(txn)
    on_first = [key for key, rid in table.index.items() if rid.lpn == table.pages[0]]
    return table, [key[0] for key in on_first]


class TestRollbackNeverNeedsSpace:
    """Undo is an exact inverse, so it cannot fail for lack of room."""

    def test_abort_of_in_place_shrink_on_full_page(self):
        engine = make_engine()
        table, keys = full_page_of_long_rows(engine)
        txn = engine.begin()
        table.update(txn, table.lookup(keys[0]), {"s": "short"})
        engine.abort(txn)
        for key in keys:
            assert table.read(table.lookup(key)) == (key, b"x" * 200)

    def test_recovery_undo_of_in_place_shrink_on_full_page(self):
        engine = make_engine()
        table, keys = full_page_of_long_rows(engine)
        loser = engine.begin()
        table.update(loser, table.lookup(keys[0]), {"s": "short"})
        engine.crash()
        assert recover(engine).undone == 1
        for key in keys:
            assert table.read(table.lookup(key)) == (key, b"x" * 200)

    def test_abort_after_shrink_then_relocating_grows(self):
        """A shrunk record that later grew (and relocated) goes back to
        its original extent — not 200 bytes written over whatever now
        follows its relocated copy."""
        engine = make_engine()
        schema = Schema([Column("k", Int32()), Column("s", VarChar(200))])
        table = engine.create_table("docs", schema, key=["k"])
        txn = engine.begin()
        table.insert(txn, (0, b"a" * 200))
        table.insert(txn, (1, b"b" * 50))
        engine.commit(txn)
        txn = engine.begin()
        table.update(txn, table.lookup(0), {"s": "tiny"})
        table.update(txn, table.lookup(0), {"s": "c" * 100})
        table.update(txn, table.lookup(1), {"s": "d" * 60})
        engine.abort(txn)
        assert table.read(table.lookup(0)) == (0, b"a" * 200)
        assert table.read(table.lookup(1)) == (1, b"b" * 50)
        engine.crash()
        recover(engine)
        assert table.read(table.lookup(0)) == (0, b"a" * 200)
        assert table.read(table.lookup(1)) == (1, b"b" * 50)


class TestRepeatedCrashes:
    def test_crash_loop_converges(self):
        engine = make_engine()
        table = simple_table(engine)
        for round_number in range(4):
            txn = engine.begin()
            table.update(txn, table.lookup(round_number), {"v": round_number * 10})
            engine.commit(txn)
            loser = engine.begin()
            table.update(loser, table.lookup(9), {"v": -1})
            engine.crash()
            recover(engine)
        for round_number in range(4):
            assert table.read(table.lookup(round_number))[1] == round_number * 10
        assert table.read(table.lookup(9))[1] == 100

    def test_row_counts_and_index_after_recovery(self):
        engine = make_engine()
        table = simple_table(engine, rows=20)
        txn = engine.begin()
        table.insert(txn, (50, 5, "a"))
        table.delete(txn, table.lookup(2))
        engine.commit(txn)
        loser = engine.begin()
        table.insert(loser, (51, 6, "b"))
        engine.flush_all()
        engine.crash()
        recover(engine)
        assert table.row_count == 20  # 20 - 1 + 1, loser's insert gone
        with pytest.raises(RecordNotFoundError):
            table.lookup(51)
        scanned = {values[0] for __, values in table.scan()}
        assert 50 in scanned and 2 not in scanned and 51 not in scanned


class TestRecoveryWithIPAOnFlash:
    def test_pages_with_full_delta_areas_recover(self):
        """Pages that used all N slots still reload and redo correctly."""
        engine = make_engine(scheme=NxMScheme(2, 4))
        table = simple_table(engine, rows=4)  # one data page
        lpn = table.lookup(0).lpn
        for round_number in range(2):  # consume both delta slots
            txn = engine.begin()
            table.update(txn, table.lookup(0), {"v": 200 + round_number})
            engine.commit(txn)
            engine.flush_all()
        assert engine.pool.frame(lpn).slots_used == 2 if lpn in engine.pool else True
        txn = engine.begin()
        table.update(txn, table.lookup(1), {"v": 777})
        engine.commit(txn)
        engine.crash()
        recover(engine)
        assert table.read(table.lookup(0))[1] == 201
        assert table.read(table.lookup(1))[1] == 777
