"""Heap-table internals: space management, relocation, index upkeep."""

import pytest

from repro.core import NxMScheme
from repro.errors import RecordNotFoundError, SchemaError
from repro.storage import (
    Char,
    Column,
    EngineConfig,
    Int32,
    Int64,
    Schema,
    StorageEngine,
    VarChar,
)
from repro.session import SessionConfig, open_device


def make_engine(page_size=1024, buffer_pages=32):
    device = open_device(SessionConfig(
        logical_pages=256, chips=4, page_size=page_size
    ))
    return StorageEngine(
        device, EngineConfig(buffer_pages=buffer_pages, scheme=NxMScheme(2, 4))
    )


class TestSpaceManagement:
    def test_inserts_fill_pages_sequentially(self):
        engine = make_engine()
        schema = Schema([Column("k", Int32()), Column("p", Char(100))])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        for i in range(40):
            table.insert(txn, (i, "x"))
        engine.commit(txn)
        # ~9 records of ~108B fit a 1KB page
        assert 4 <= len(table.pages) <= 8
        # pages are densely filled, not one record per page
        assert table.row_count / len(table.pages) > 4

    def test_delete_reopens_page_for_inserts(self):
        engine = make_engine()
        schema = Schema([Column("k", Int32()), Column("p", Char(100))])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        for i in range(30):
            table.insert(txn, (i, "x"))
        pages_before = len(table.pages)
        # free a slot on an early page, then insert: the slot is reused
        table.delete(txn, table.lookup(0))
        table.insert(txn, (1000, "y"))
        engine.commit(txn)
        assert len(table.pages) == pages_before
        assert table.lookup(1000).lpn in table.pages

    def test_region_capacity_exhaustion(self):
        from repro.errors import StorageError

        device = open_device(SessionConfig(logical_pages=4, chips=2, page_size=1024))
        engine = StorageEngine(device, EngineConfig(buffer_pages=8))
        schema = Schema([Column("k", Int32()), Column("p", Char(200))])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        with pytest.raises(StorageError):
            for i in range(100):
                table.insert(txn, (i, "x"))


class TestReplaceRelocation:
    def test_grown_record_relocates_to_new_page_when_full(self):
        engine = make_engine(page_size=512)
        schema = Schema([Column("k", Int32()), Column("d", VarChar(400))])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        # fill one page nearly completely
        rids = [table.insert(txn, (i, b"a" * 80)) for i in range(4)]
        # grow record 0 beyond its page's free space
        table.update(txn, table.lookup(0), {"d": b"b" * 300})
        engine.commit(txn)
        assert table.read(table.lookup(0))[1] == b"b" * 300
        # the relocated row may live on a different page now
        assert table.lookup(0).lpn in table.pages
        # other rows untouched
        for i in range(1, 4):
            assert table.read(table.lookup(i))[1] == b"a" * 80

    def test_oversized_record_rejected_not_looping(self):
        from repro.errors import PageFullError

        engine = make_engine(page_size=512)
        schema = Schema([Column("k", Int32()), Column("d", VarChar(600))])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        with pytest.raises(PageFullError):
            table.insert(txn, (1, b"z" * 500))

    def test_relocation_keeps_index_consistent(self):
        engine = make_engine(page_size=512)
        schema = Schema([Column("k", Int32()), Column("d", VarChar(400))])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        for i in range(4):
            table.insert(txn, (i, b"a" * 80))
        table.update(txn, table.lookup(2), {"d": b"c" * 300})
        engine.commit(txn)
        scanned = {values[0]: values[1] for __, values in table.scan()}
        assert scanned[2] == b"c" * 300
        assert len(scanned) == 4


class TestIndexUpkeep:
    def test_lookup_without_key_raises(self):
        engine = make_engine()
        table = engine.create_table(
            "nokey", Schema([Column("a", Int32())])
        )
        with pytest.raises(SchemaError):
            table.lookup(1)
        with pytest.raises(SchemaError):
            table.key_of((1,))

    def test_composite_key(self):
        engine = make_engine()
        schema = Schema([Column("a", Int32()), Column("b", Int32()),
                         Column("v", Int64())])
        table = engine.create_table("t", schema, key=["a", "b"])
        txn = engine.begin()
        table.insert(txn, (1, 2, 100))
        table.insert(txn, (1, 3, 200))
        engine.commit(txn)
        assert table.read(table.lookup(1, 3))[2] == 200
        with pytest.raises(RecordNotFoundError):
            table.lookup(2, 2)

    def test_key_of_is_a_tuple_for_one_and_many_key_columns(self):
        engine = make_engine()
        schema = Schema([Column("a", Int32()), Column("b", Int32()),
                         Column("v", Int64())])
        single = engine.create_table("one", schema, key=["b"])
        composite = engine.create_table("two", schema, key=["b", "a"])
        assert single.key_of((1, 2, 3)) == (2,)
        assert single.key_of([1, 2, 3]) == (2,)
        assert composite.key_of((1, 2, 3)) == (2, 1)

    def test_rebuild_index(self):
        engine = make_engine()
        schema = Schema([Column("k", Int32()), Column("v", Int64())])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        for i in range(20):
            table.insert(txn, (i, i * 10))
        engine.commit(txn)
        table.index.clear()
        table.rebuild_index()
        assert table.read(table.lookup(13))[1] == 130
        assert table.row_count == 20

    def test_update_returning_equal_bytes_is_not_logged(self):
        engine = make_engine()
        schema = Schema([Column("k", Int32()), Column("v", Int64())])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        rid = table.insert(txn, (1, 5))
        engine.commit(txn)
        appended_before = engine.log.appended
        txn = engine.begin()
        table.update(txn, rid, {"v": 5})  # no byte changes
        engine.commit(txn)
        # only the commit record was appended
        assert engine.log.appended == appended_before + 1
