"""Integration tests: engine + tables + transactions + IPA + recovery."""

import dataclasses

import pytest

from repro.core import NxMScheme, SCHEME_OFF
from repro.errors import RecordNotFoundError, SchemaError, StorageError, TransactionError
from repro.flash import FlashGeometry, FlashMemory
from repro.ftl import IPAMode, single_region_device
from repro.storage import (
    Char,
    Column,
    EngineConfig,
    Int32,
    Int64,
    LogManager,
    Schema,
    StorageEngine,
    VarChar,
    recover,
)


def make_engine(
    scheme=NxMScheme(2, 4),
    buffer_pages=16,
    logical_pages=128,
    eviction="eager",
    retain_log=True,
    ipa_mode=IPAMode.NATIVE,
    ecc=False,
):
    geometry = FlashGeometry(
        chips=2, blocks_per_chip=32, pages_per_block=16, page_size=1024, oob_size=64
    )
    device = single_region_device(
        FlashMemory(geometry), logical_pages=logical_pages, ipa_mode=ipa_mode
    )
    config = EngineConfig(
        buffer_pages=buffer_pages,
        scheme=scheme,
        eviction=eviction,
        retain_log=retain_log,
        ecc=ecc,
    )
    return StorageEngine(device, config)


def account_schema():
    return Schema(
        [
            Column("id", Int32()),
            Column("balance", Int64()),
            Column("filler", Char(40)),
        ]
    )


def populated(engine, rows=50):
    table = engine.create_table("account", account_schema(), key=["id"])
    txn = engine.begin()
    for i in range(rows):
        table.insert(txn, (i, 1000, "f"))
    engine.commit(txn)
    return table


class TestCrud:
    def test_insert_read(self):
        engine = make_engine()
        table = populated(engine, rows=10)
        rid = table.lookup(3)
        assert table.read(rid) == (3, 1000, "f")

    def test_update_fixed_column(self):
        engine = make_engine()
        table = populated(engine, rows=10)
        txn = engine.begin()
        table.update(txn, table.lookup(3), {"balance": 1234})
        engine.commit(txn)
        assert table.read(table.lookup(3))[1] == 1234

    def test_update_missing_column_raises(self):
        engine = make_engine()
        table = populated(engine, rows=2)
        txn = engine.begin()
        with pytest.raises(SchemaError):
            table.update(txn, table.lookup(0), {"nope": 1})

    def test_update_key_column_forbidden(self):
        engine = make_engine()
        table = populated(engine, rows=2)
        txn = engine.begin()
        with pytest.raises(SchemaError):
            table.update(txn, table.lookup(0), {"id": 99})

    def test_delete(self):
        engine = make_engine()
        table = populated(engine, rows=5)
        txn = engine.begin()
        table.delete(txn, table.lookup(2))
        engine.commit(txn)
        with pytest.raises(RecordNotFoundError):
            table.lookup(2)
        assert table.row_count == 4

    def test_scan(self):
        engine = make_engine()
        table = populated(engine, rows=30)
        rows = sorted(values[0] for __, values in table.scan())
        assert rows == list(range(30))

    def test_varchar_update_grows(self):
        engine = make_engine()
        schema = Schema([Column("id", Int32()), Column("data", VarChar(200))])
        table = engine.create_table("blobs", schema, key=["id"])
        txn = engine.begin()
        rid = table.insert(txn, (1, b"short"))
        table.update(txn, rid, {"data": b"a-considerably-longer-payload"})
        engine.commit(txn)
        assert table.read(rid)[1] == b"a-considerably-longer-payload"

    def test_duplicate_table_rejected(self):
        engine = make_engine()
        engine.create_table("t", account_schema())
        with pytest.raises(StorageError):
            engine.create_table("t", account_schema())


class TestTransactions:
    def test_abort_reverts_update(self):
        engine = make_engine()
        table = populated(engine, rows=5)
        txn = engine.begin()
        table.update(txn, table.lookup(1), {"balance": 777})
        engine.abort(txn)
        assert table.read(table.lookup(1))[1] == 1000

    def test_abort_reverts_insert(self):
        engine = make_engine()
        table = populated(engine, rows=5)
        txn = engine.begin()
        table.insert(txn, (99, 5, "x"))
        engine.abort(txn)
        with pytest.raises(RecordNotFoundError):
            table.lookup(99)
        assert table.row_count == 5

    def test_abort_reverts_delete(self):
        engine = make_engine()
        table = populated(engine, rows=5)
        txn = engine.begin()
        table.delete(txn, table.lookup(2))
        engine.abort(txn)
        assert table.read(table.lookup(2)) == (2, 1000, "f")

    def test_abort_reverts_in_reverse_order(self):
        engine = make_engine()
        table = populated(engine, rows=3)
        txn = engine.begin()
        rid = table.lookup(0)
        table.update(txn, rid, {"balance": 1})
        table.update(txn, rid, {"balance": 2})
        table.update(txn, rid, {"balance": 3})
        engine.abort(txn)
        assert table.read(rid)[1] == 1000

    def test_commit_after_abort_raises(self):
        engine = make_engine()
        txn = engine.begin()
        engine.abort(txn)
        with pytest.raises(TransactionError):
            engine.commit(txn)

    def test_abort_survives_steal(self):
        """Rollback works even after dirty uncommitted pages were flushed
        (possibly as delta appends) — the Section 6.2 walk-through."""
        engine = make_engine(buffer_pages=16)
        table = populated(engine, rows=5)
        engine.flush_all()
        txn = engine.begin()
        table.update(txn, table.lookup(1), {"balance": 55555})
        engine.flush_all()  # steal: uncommitted change hits flash
        assert engine.ipa.stats.ipa_flushes >= 1
        engine.abort(txn)
        engine.flush_all()
        assert table.read(table.lookup(1))[1] == 1000


class TestIPAIntegration:
    def test_small_updates_become_appends(self):
        engine = make_engine()
        table = populated(engine, rows=40)
        engine.flush_all()
        base = engine.ipa.stats.ipa_flushes
        for i in range(40):
            txn = engine.begin()
            table.update(txn, table.lookup(i), {"balance": 1001})
            engine.commit(txn)
            engine.flush_all()  # one small update per materialization
        assert engine.ipa.stats.ipa_flushes > base

    def test_scheme_off_never_appends(self):
        engine = make_engine(scheme=SCHEME_OFF)
        table = populated(engine, rows=40)
        for i in range(40):
            txn = engine.begin()
            table.update(txn, table.lookup(i), {"balance": i})
            engine.commit(txn)
        engine.flush_all()
        assert engine.ipa.stats.ipa_flushes == 0
        assert engine.device.stats.delta_writes == 0

    def test_budget_overflow_falls_back(self):
        engine = make_engine(scheme=NxMScheme(1, 2))
        table = populated(engine, rows=20)
        engine.flush_all()
        txn = engine.begin()
        rid = table.lookup(0)
        # change far more than 2 bytes on the page
        table.update(txn, rid, {"balance": 0x0102030405060708, "filler": "zzz"})
        engine.commit(txn)
        engine.flush_all()
        assert engine.ipa.stats.budget_overflows >= 1

    def test_appended_page_roundtrip_through_eviction(self):
        """Fetch after IPA flush reapplies deltas: data is identical."""
        engine = make_engine(buffer_pages=16)
        table = populated(engine, rows=40)
        engine.flush_all()
        txn = engine.begin()
        table.update(txn, table.lookup(7), {"balance": 4242})
        engine.commit(txn)
        engine.flush_all()
        engine.pool.drop_all()  # force re-read from flash
        assert table.read(table.lookup(7))[1] == 4242
        assert engine.ipa.stats.ipa_flushes >= 1

    def test_n_appends_then_oop(self):
        """After N appends the next flush must go out-of-place."""
        engine = make_engine(scheme=NxMScheme(2, 4))
        table = populated(engine, rows=4)  # single page
        engine.flush_all()
        lpn = table.lookup(0).lpn
        for round_number in range(3):
            txn = engine.begin()
            table.update(txn, table.lookup(0), {"balance": 2000 + round_number})
            engine.commit(txn)
            engine.flush_all()
        stats = engine.ipa.stats
        assert stats.ipa_flushes == 2
        assert stats.oop_flushes >= 1

    def test_ecc_roundtrip(self):
        engine = make_engine(ecc=True)
        table = populated(engine, rows=20)
        engine.flush_all()
        txn = engine.begin()
        table.update(txn, table.lookup(3), {"balance": 9})
        engine.commit(txn)
        engine.flush_all()
        engine.pool.drop_all()
        assert table.read(table.lookup(3))[1] == 9

    def test_flush_observer_sees_sizes(self):
        events = []
        engine = make_engine()
        engine.add_flush_observer(
            lambda lpn, kind, net, gross, overflow: events.append((kind, net, gross))
        )
        table = populated(engine, rows=10)
        engine.flush_all()
        txn = engine.begin()
        table.update(txn, table.lookup(1), {"balance": 1001})
        engine.commit(txn)
        engine.flush_all()
        ipa_events = [e for e in events if e[0] == "ipa"]
        assert ipa_events
        kind, net, gross = ipa_events[-1]
        assert 1 <= net <= 4
        assert gross >= net


class TestRecovery:
    def test_committed_survive_crash(self):
        engine = make_engine()
        table = populated(engine, rows=20)
        txn = engine.begin()
        table.update(txn, table.lookup(5), {"balance": 5555})
        engine.commit(txn)
        engine.crash()
        report = recover(engine)
        assert table.read(table.lookup(5))[1] == 5555
        assert report.losers == 0

    def test_losers_rolled_back(self):
        engine = make_engine()
        table = populated(engine, rows=20)
        engine.flush_all()
        txn = engine.begin()
        table.update(txn, table.lookup(5), {"balance": 666})
        engine.flush_all()  # stolen uncommitted write reaches flash
        engine.crash()
        report = recover(engine)
        assert report.losers == 1
        assert table.read(table.lookup(5))[1] == 1000

    def test_unflushed_committed_insert_redone(self):
        engine = make_engine()
        table = populated(engine, rows=5)
        txn = engine.begin()
        table.insert(txn, (50, 123, "new"))
        engine.commit(txn)
        engine.crash()  # insert never reached flash
        recover(engine)
        assert table.read(table.lookup(50)) == (50, 123, "new")

    def test_crash_after_delta_append_replays(self):
        """Pages whose last materialization was an IPA append recover."""
        engine = make_engine()
        table = populated(engine, rows=20)
        engine.flush_all()
        txn = engine.begin()
        table.update(txn, table.lookup(2), {"balance": 2222})
        engine.commit(txn)
        engine.flush_all()
        assert engine.ipa.stats.ipa_flushes >= 1
        engine.crash()
        recover(engine)
        assert table.read(table.lookup(2))[1] == 2222

    def test_recovery_requires_retained_log(self):
        engine = make_engine(retain_log=False)
        populated(engine, rows=2)
        engine.crash()
        with pytest.raises(StorageError):
            recover(engine)

    def test_idempotent_recovery(self):
        engine = make_engine()
        table = populated(engine, rows=10)
        txn = engine.begin()
        table.update(txn, table.lookup(1), {"balance": 42})
        engine.commit(txn)
        engine.crash()
        recover(engine)
        engine.crash()
        recover(engine)
        assert table.read(table.lookup(1))[1] == 42


def test_engine_config_fields():
    # Every tunable the engine honours, and no other: a field nothing
    # reads fails here.
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "buffer_pages", "scheme", "eviction", "log_capacity_bytes",
        "retain_log", "ecc", "page_checksum",
    ]


class TestGroupCommitEngine:
    """The engine's commit and checkpoint paths over an amortizing log.

    ``EngineConfig`` has no group-commit knob (the transaction executor
    groups commits in its ``GroupCommitGate``); these tests install a
    ``LogManager(group_commit=N)`` directly to pin how the synchronous
    commit/checkpoint code treats one.
    """

    def _run(self, group_commit, txns=30):
        geometry = FlashGeometry(
            chips=2, blocks_per_chip=32, pages_per_block=16,
            page_size=1024, oob_size=64,
        )
        device = single_region_device(
            FlashMemory(geometry), logical_pages=128, ipa_mode=IPAMode.NATIVE
        )
        engine = StorageEngine(device, EngineConfig(buffer_pages=16))
        engine.log = LogManager(
            capacity_bytes=engine.config.log_capacity_bytes,
            group_commit=group_commit,
        )
        table = populated(engine, rows=20)
        for k in range(txns):
            txn = engine.begin()
            table.update(txn, table.lookup(k % 20), {"balance": k})
            engine.commit(txn)
        return engine, table

    def test_grouping_amortizes_forces(self):
        solo, __ = self._run(group_commit=1)
        grouped, __ = self._run(group_commit=4)
        assert grouped.log.forces < solo.log.forces
        assert grouped.log.commits_grouped > 0

    def test_grouping_preserves_committed_data(self):
        __, solo_table = self._run(group_commit=1)
        __, grouped_table = self._run(group_commit=4)
        for key in range(20):
            assert (
                solo_table.read(solo_table.lookup(key))
                == grouped_table.read(grouped_table.lookup(key))
            )

    def test_checkpoint_closes_open_group(self):
        engine, __ = self._run(group_commit=100, txns=5)
        # Five commits buffered, none forced yet.
        forces_before = engine.log.forces
        engine.checkpoint()
        assert engine.log.forces == forces_before + 1
        # The barrier emptied the group: another checkpoint adds nothing.
        engine.checkpoint()
        assert engine.log.forces == forces_before + 1


class TestEvictionStrategies:
    def test_eager_config(self):
        config = EngineConfig(eviction="eager")
        assert config.dirty_threshold == 0.125
        assert config.log_reclaim_fraction == 0.25

    def test_non_eager_config(self):
        config = EngineConfig(eviction="non-eager")
        assert config.dirty_threshold == 0.75
        assert config.log_reclaim_fraction == 1.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(StorageError):
            EngineConfig(eviction="weird")

    def test_eager_flushes_more_often(self):
        def run(eviction):
            engine = make_engine(eviction=eviction, buffer_pages=32, retain_log=False)
            table = populated(engine, rows=240)
            for k in range(600):
                txn = engine.begin()
                table.update(txn, table.lookup(k % 240), {"balance": k})
                engine.commit(txn)
            return engine.device.stats.host_writes

        assert run("eager") > run("non-eager")

    def test_log_reclaim_forces_checkpoints(self):
        engine = make_engine(retain_log=False)
        engine.log.capacity_bytes = 4096  # tiny log: frequent reclaim
        table = populated(engine, rows=20)
        for k in range(200):
            txn = engine.begin()
            table.update(txn, table.lookup(k % 20), {"balance": k})
            engine.commit(txn)
        assert engine.checkpoints > 0
