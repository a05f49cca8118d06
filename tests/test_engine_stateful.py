"""Model-based stateful test of the engine's ACID behaviour.

Hypothesis drives a random interleaving of inserts, updates, deletes,
commits, aborts, cleaner flushes, full checkpoints, and crash/recovery
cycles against a storage engine running with IPA enabled, and checks it
against a plain-dict model after every step.  This exercises DESIGN.md
invariants 2, 3 and 5 end to end: whatever mix of delta appends and
out-of-place writes materialized the pages, committed data always reads
back, and losers always disappear.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core import NxMScheme
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
from repro.session import SessionConfig, open_device


class EngineMachine(RuleBasedStateMachine):
    keys = Bundle("keys")

    @initialize()
    def setup(self):
        device = open_device(SessionConfig(logical_pages=256, chips=4, page_size=1024))
        self.engine = StorageEngine(
            device,
            EngineConfig(buffer_pages=24, scheme=NxMScheme(2, 6), retain_log=True),
        )
        self.table = self.engine.create_table(
            "t",
            Schema([Column("k", Int32()), Column("v", Int64()),
                    Column("pad", Char(30))]),
            key=["k"],
        )
        #: The model: committed state only.
        self.model: dict[int, int] = {}
        self._next_key = 0

    # ------------------------------------------------------------------
    # Committed single-op transactions
    # ------------------------------------------------------------------

    @rule(target=keys, value=st.integers(min_value=-(2**40), max_value=2**40))
    def insert_committed(self, value):
        key = self._next_key
        self._next_key += 1
        txn = self.engine.begin()
        self.table.insert(txn, (key, value, "row"))
        self.engine.commit(txn)
        self.model[key] = value
        return key

    @rule(key=keys, value=st.integers(min_value=-(2**40), max_value=2**40))
    def update_committed(self, key, value):
        if key not in self.model:
            return
        txn = self.engine.begin()
        self.table.update(txn, self.table.lookup(key), {"v": value})
        self.engine.commit(txn)
        self.model[key] = value

    @rule(key=keys)
    def delete_committed(self, key):
        if key not in self.model:
            return
        txn = self.engine.begin()
        self.table.delete(txn, self.table.lookup(key))
        self.engine.commit(txn)
        del self.model[key]

    # ------------------------------------------------------------------
    # Aborted transactions: the model must not change
    # ------------------------------------------------------------------

    @rule(key=keys, value=st.integers(min_value=0, max_value=2**40))
    def update_aborted(self, key, value):
        if key not in self.model:
            return
        txn = self.engine.begin()
        self.table.update(txn, self.table.lookup(key), {"v": value})
        self.engine.abort(txn)

    @rule(value=st.integers(min_value=0, max_value=2**40))
    def insert_aborted(self, value):
        key = self._next_key
        self._next_key += 1
        txn = self.engine.begin()
        self.table.insert(txn, (key, value, "row"))
        self.engine.abort(txn)

    @rule(key=keys)
    def delete_aborted(self, key):
        if key not in self.model:
            return
        txn = self.engine.begin()
        self.table.delete(txn, self.table.lookup(key))
        self.engine.abort(txn)

    # ------------------------------------------------------------------
    # Storage events
    # ------------------------------------------------------------------

    @rule()
    def checkpoint(self):
        self.engine.checkpoint()

    @rule()
    def cleaner_pass(self):
        self.engine.pool.clean(self.engine.clock)

    @rule()
    def crash_and_recover(self):
        self.engine.crash()
        recover(self.engine)

    @rule()
    def drop_buffer_after_flush(self):
        """Cold restart of the cache: everything re-read from flash."""
        self.engine.flush_all()
        self.engine.pool.drop_all()

    # ------------------------------------------------------------------
    # Invariant: engine state == model
    # ------------------------------------------------------------------

    @invariant()
    def committed_data_matches_model(self):
        if not hasattr(self, "model"):
            return
        for key, value in self.model.items():
            assert self.table.read(self.table.lookup(key))[1] == value
        # deleted/never-inserted keys are absent
        assert self.table.row_count == len(self.model)

    @invariant()
    def scan_agrees_with_index(self):
        if not hasattr(self, "model"):
            return
        scanned = {values[0]: values[1] for __, values in self.table.scan()}
        assert scanned == self.model


EngineMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None,
)
TestEngineStateful = EngineMachine.TestCase
