"""Tests for secondary B+-tree indexes on tables."""

import pytest

from repro.core import NxMScheme
from repro.errors import SchemaError, StorageError
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


def make_engine(retain_log=False):
    device = open_device(SessionConfig(logical_pages=512, chips=4, page_size=1024))
    return StorageEngine(
        device,
        EngineConfig(buffer_pages=64, scheme=NxMScheme(2, 4),
                     retain_log=retain_log),
    )


def customer_schema():
    return Schema([
        Column("c_id", Int32()),
        Column("last_name", Char(16)),
        Column("balance", Int64()),
    ])


def populated(engine, rows=60, retained=False):
    table = engine.create_table("customer", customer_schema(), key=["c_id"])
    txn = engine.begin()
    names = ["SMITH", "JONES", "BROWN", "DAVIS"]
    for i in range(rows):
        table.insert(txn, (i, names[i % 4], 100))
    engine.commit(txn)
    index = engine.create_index("idx_lastname", "customer", ["last_name"])
    return table, index


class TestBasics:
    def test_build_from_existing_rows(self):
        engine = make_engine()
        table, index = populated(engine)
        assert len(index) == 60
        rids = index.search("SMITH")
        assert len(rids) == 15
        assert all(table.read(rid)[1] == "SMITH" for rid in rids)

    def test_insert_maintains(self):
        engine = make_engine()
        table, index = populated(engine)
        txn = engine.begin()
        table.insert(txn, (999, "SMITH", 5))
        engine.commit(txn)
        assert len(index.search("SMITH")) == 16

    def test_delete_maintains(self):
        engine = make_engine()
        table, index = populated(engine)
        txn = engine.begin()
        victim = index.search("JONES")[0]
        table.delete(txn, victim)
        engine.commit(txn)
        assert len(index.search("JONES")) == 14
        assert victim not in index.search("JONES")

    def test_update_of_indexed_column_moves_entry(self):
        engine = make_engine()
        table, index = populated(engine)
        txn = engine.begin()
        rid = index.search("BROWN")[0]
        table.update(txn, rid, {"last_name": "WHITE"})
        engine.commit(txn)
        assert rid in index.search("WHITE")
        assert rid not in index.search("BROWN")

    def test_update_of_unindexed_column_is_cheap(self):
        engine = make_engine()
        table, index = populated(engine)
        entries_before = len(index)
        txn = engine.begin()
        table.update(txn, table.lookup(3), {"balance": 777})
        engine.commit(txn)
        assert len(index) == entries_before

    def test_range_query(self):
        engine = make_engine()
        table, index = populated(engine)
        hits = index.range(("BROWN",), ("JONES",))
        assert len(hits) == 45  # BROWN + DAVIS + JONES buckets, 15 each

    def test_missing_table_rejected(self):
        engine = make_engine()
        with pytest.raises(StorageError):
            engine.create_index("i", "nope", ["x"])

    def test_varchar_column_not_indexable(self):
        engine = make_engine()
        schema = Schema([Column("k", Int32()), Column("d", VarChar(50))])
        engine.create_table("blobs", schema, key=["k"])
        with pytest.raises(SchemaError):
            engine.create_index("i", "blobs", ["d"])

    def test_negative_ints_order_correctly(self):
        engine = make_engine()
        schema = Schema([Column("k", Int32()), Column("v", Int64())])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        for i, value in enumerate([-100, -1, 0, 1, 100]):
            table.insert(txn, (i, value))
        engine.commit(txn)
        index = engine.create_index("iv", "t", ["v"])
        hits = index.range((-1,), (1,))
        values = [table.read(rid)[1] for __, rid in hits]
        assert values == [-1, 0, 1]


class TestRollbackAndRecovery:
    def test_abort_restores_index(self):
        engine = make_engine()
        table, index = populated(engine)
        txn = engine.begin()
        rid = index.search("DAVIS")[0]
        table.update(txn, rid, {"last_name": "GREEN"})
        table.insert(txn, (500, "GREEN", 1))
        engine.abort(txn)
        assert index.search("GREEN") == []
        assert rid in index.search("DAVIS")
        assert len(index) == 60

    def test_abort_of_delete_restores_entry(self):
        engine = make_engine()
        table, index = populated(engine)
        txn = engine.begin()
        victim = index.search("SMITH")[0]
        table.delete(txn, victim)
        engine.abort(txn)
        assert victim in index.search("SMITH")

    def test_recovery_rebuilds_secondary(self):
        engine = make_engine(retain_log=True)
        table, index = populated(engine)
        txn = engine.begin()
        table.insert(txn, (700, "SMITH", 9))
        engine.commit(txn)
        engine.crash()
        recover(engine)
        index = table.secondary_indexes[0]
        assert len(index.search("SMITH")) == 16

    def test_index_pages_flow_through_ipa(self):
        """Secondary index node pages are ordinary DB pages."""
        engine = make_engine()
        table, index = populated(engine, rows=200)
        engine.flush_all()
        before = engine.ipa.stats.ipa_flushes
        txn = engine.begin()
        table.update(txn, index.search("SMITH")[0], {"last_name": "SMYTH"})
        engine.commit(txn)
        engine.flush_all()
        assert engine.ipa.stats.ipa_flushes > before
        engine.pool.drop_all()
        assert len(index.search("SMYTH")) == 1
