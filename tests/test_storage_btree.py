"""Unit + property tests for the B+-tree index."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NxMScheme
from repro.errors import RecordNotFoundError, SchemaError, StorageError
from repro.storage import EngineConfig, RID, StorageEngine
from repro.storage.btree import BTreeIndex, int_key
from repro.session import SessionConfig, open_device


def make_engine(pages=512, buffer_pages=64, scheme=NxMScheme(2, 4)):
    device = open_device(SessionConfig(logical_pages=pages, chips=4, page_size=1024))
    return StorageEngine(device, EngineConfig(buffer_pages=buffer_pages, scheme=scheme))


@pytest.fixture
def tree():
    engine = make_engine()
    return BTreeIndex(engine, "idx", key_width=8)


class TestBasics:
    def test_empty_tree_lookup_raises(self, tree):
        with pytest.raises(RecordNotFoundError):
            tree.search(int_key(1))

    def test_insert_search(self, tree):
        tree.insert(int_key(42), RID(5, 3))
        assert tree.search(int_key(42)) == RID(5, 3)
        assert tree.entry_count == 1

    def test_duplicate_rejected(self, tree):
        tree.insert(int_key(42), RID(5, 3))
        with pytest.raises(StorageError):
            tree.insert(int_key(42), RID(6, 0))

    def test_wrong_key_width(self, tree):
        with pytest.raises(SchemaError):
            tree.search(b"short")
        with pytest.raises(SchemaError):
            tree.insert(b"way-too-long-key-bytes", RID(0, 0))

    def test_non_bytes_key(self, tree):
        with pytest.raises(SchemaError):
            tree.search(12345)

    def test_delete(self, tree):
        tree.insert(int_key(1), RID(1, 1))
        tree.delete(int_key(1))
        with pytest.raises(RecordNotFoundError):
            tree.search(int_key(1))
        assert tree.entry_count == 0

    def test_delete_missing_raises(self, tree):
        with pytest.raises(RecordNotFoundError):
            tree.delete(int_key(9))

    def test_bad_key_width_config(self):
        engine = make_engine()
        with pytest.raises(SchemaError):
            BTreeIndex(engine, "bad", key_width=0)


class TestSplitsAndScale:
    def test_many_inserts_force_splits(self):
        engine = make_engine()
        tree = BTreeIndex(engine, "idx", key_width=8)
        n = 500
        for i in range(n):
            tree.insert(int_key(i), RID(i, i % 100))
        assert tree.height() >= 2, "500 entries on 1KB pages must split"
        for i in range(n):
            assert tree.search(int_key(i)) == RID(i, i % 100)

    def test_random_insert_order(self):
        engine = make_engine()
        tree = BTreeIndex(engine, "idx", key_width=8)
        keys = list(range(400))
        random.Random(3).shuffle(keys)
        for k in keys:
            tree.insert(int_key(k), RID(k, 0))
        assert [int.from_bytes(k, "big") for k in tree.keys()] == list(range(400))

    def test_keys_sorted_after_splits(self):
        engine = make_engine()
        tree = BTreeIndex(engine, "idx", key_width=8)
        for i in range(300, 0, -1):  # descending insert order
            tree.insert(int_key(i), RID(i, 0))
        listed = list(tree.keys())
        assert listed == sorted(listed)

    def test_range_scan(self):
        engine = make_engine()
        tree = BTreeIndex(engine, "idx", key_width=8)
        for i in range(0, 400, 2):  # even keys
            tree.insert(int_key(i), RID(i, 0))
        result = [int.from_bytes(k, "big") for k, __ in tree.range_scan(int_key(100), int_key(120))]
        assert result == list(range(100, 121, 2))

    def test_range_scan_crosses_leaves(self):
        engine = make_engine()
        tree = BTreeIndex(engine, "idx", key_width=8)
        for i in range(400):
            tree.insert(int_key(i), RID(i, 0))
        assert tree.height() >= 2
        result = [int.from_bytes(k, "big") for k, __ in tree.range_scan(int_key(0), int_key(399))]
        assert result == list(range(400))

    def test_survives_buffer_pressure(self):
        """Node pages evict and reload through the IPA path correctly."""
        engine = make_engine(buffer_pages=8)
        tree = BTreeIndex(engine, "idx", key_width=8)
        for i in range(300):
            tree.insert(int_key(i), RID(i, 0))
        engine.flush_all()
        engine.pool.drop_all()
        for i in range(0, 300, 17):
            assert tree.search(int_key(i)) == RID(i, 0)

    def test_index_updates_become_appends(self):
        """Small index mutations ride the delta-record path."""
        engine = make_engine(buffer_pages=16)
        tree = BTreeIndex(engine, "idx", key_width=8)
        for i in range(200):
            tree.insert(int_key(i), RID(i, 0))
        engine.flush_all()
        before = engine.ipa.stats.ipa_flushes
        # a sibling-pointer-size mutation: delete + flush
        tree.delete(int_key(7))
        engine.flush_all()
        assert engine.ipa.stats.ipa_flushes > before

    def test_zero_key_insertable(self):
        """Key 0 collides with the inner sentinel encoding; must work."""
        engine = make_engine()
        tree = BTreeIndex(engine, "idx", key_width=8)
        for i in range(300):
            tree.insert(int_key(i), RID(i, 0))
        assert tree.search(int_key(0)) == RID(0, 0)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                max_size=150, unique=True))
def test_property_btree_matches_dict(keys):
    engine = make_engine()
    tree = BTreeIndex(engine, "idx", key_width=8)
    reference = {}
    for k in keys:
        tree.insert(int_key(k), RID(k, k % 7))
        reference[k] = RID(k, k % 7)
    for k, rid in reference.items():
        assert tree.search(int_key(k)) == rid
    assert [int.from_bytes(k, "big") for k in tree.keys()] == sorted(reference)
