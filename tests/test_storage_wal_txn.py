"""Unit tests for the log manager and transaction bookkeeping."""

import ast
from pathlib import Path

import pytest

import repro
import repro.storage
from repro.errors import TransactionError
from repro.storage import LogKind, LogManager, TransactionManager, TxnState
from repro.storage.wal import LogRecord


class TestLogRecordSizes:
    def test_update_size(self):
        record = LogRecord(1, 1, LogKind.UPDATE, 0, 0,
                           ((10, b"ab", b"cd"), (20, b"x", b"y")))
        assert record.size == 28 + (4 + 4) + (4 + 2)

    def test_insert_size(self):
        record = LogRecord(1, 1, LogKind.INSERT, 0, 0, (b"12345",))
        assert record.size == 28 + 5

    def test_replace_size(self):
        record = LogRecord(1, 1, LogKind.REPLACE, 0, 0, (b"old", b"newer"))
        assert record.size == 28 + 8
        # The old heap offset rides in the fixed header estimate.
        assert LogRecord(1, 1, LogKind.REPLACE, 0, 0, (b"old", b"newer", 32)).size == 28 + 8

    def test_delete_size(self):
        record = LogRecord(1, 1, LogKind.DELETE, 0, 0, (100, 20))
        assert record.size == 32

    def test_control_record_size(self):
        assert LogRecord(1, 1, LogKind.COMMIT).size == 28


def test_only_apply_record_writes_logged_page_bytes():
    """Forward operations, undo and redo reach page bytes through
    ``wal.apply_record`` alone: the modules that log changes call none
    of the page's mutators themselves."""
    mutators = {
        "write_bytes", "replace_record", "delete_record",
        "update_record_bytes", "place_record",
    }
    package = Path(repro.storage.__file__).parent
    for name in ("heap.py", "engine.py", "recovery.py"):
        tree = ast.parse((package / name).read_text())
        calls = {
            node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert not calls & mutators, f"{name} calls {sorted(calls & mutators)}"


def _assigned_subscripts(node):
    """Subscript nodes among an assignment's (possibly nested) targets."""
    if isinstance(node, ast.Subscript):
        yield node
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _assigned_subscripts(element)
    elif isinstance(node, ast.Starred):
        yield from _assigned_subscripts(node.value)


def test_only_the_page_layout_writes_into_a_page_image():
    """A constructed page's image changes only through ``write_bytes``
    (or the internal writer behind it), which keeps the cached slot
    count, free pointer and free-slot hint coherent: no other module
    stores into a subscript of an attribute named ``image``."""
    package = Path(repro.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "storage" / "page_layout.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for subscript in _assigned_subscripts(target):
                    value = subscript.value
                    if isinstance(value, ast.Attribute) and value.attr == "image":
                        offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert offenders == []


class TestLogManager:
    def test_lsns_monotone(self):
        log = LogManager()
        a = log.append(1, LogKind.INSERT, 0, 0, (b"x",))
        b = log.append(1, LogKind.COMMIT)
        assert b.lsn == a.lsn + 1
        assert log.last_lsn == b.lsn
        assert log.next_lsn == b.lsn + 1

    def test_retention_toggle(self):
        retained = LogManager(retain=True)
        retained.append(1, LogKind.COMMIT)
        assert len(retained.records) == 1
        dropped = LogManager(retain=False)
        dropped.append(1, LogKind.COMMIT)
        assert dropped.records == []
        assert dropped.appended == 1

    def test_space_accounting_and_checkpoint(self):
        log = LogManager(capacity_bytes=1000)
        for __ in range(10):
            log.append(1, LogKind.INSERT, 0, 0, (b"x" * 22,))
        assert log.space_consumed_fraction() == pytest.approx(0.5)
        log.note_checkpoint()
        assert log.space_consumed_fraction() < 0.05
        assert log.bytes_written > 0  # total never resets

    def test_force_counts_and_returns_latency(self):
        log = LogManager(force_latency_us=42.0)
        assert log.force() == 42.0
        assert log.forces == 1

    def test_zero_capacity_is_never_full(self):
        log = LogManager(capacity_bytes=0)
        log.append(1, LogKind.COMMIT)
        assert log.space_consumed_fraction() == 0.0


class TestGroupCommit:
    def test_default_forces_every_commit(self):
        log = LogManager(force_latency_us=42.0)
        assert log.force() == 42.0
        assert log.force() == 42.0
        assert log.forces == 2
        assert log.commits_grouped == 0

    def test_group_of_n_pays_one_force(self):
        log = LogManager(force_latency_us=42.0, group_commit=3)
        assert log.force() == 0.0
        assert log.force() == 0.0
        assert log.force() == 42.0  # the third commit pays for all three
        assert log.forces == 1
        assert log.commits_grouped == 2

    def test_flush_group_closes_partial_batches(self):
        log = LogManager(force_latency_us=42.0, group_commit=4)
        assert log.force() == 0.0
        # A checkpoint barrier must not leave unforced commits behind.
        assert log.flush_group() == 42.0
        assert log.forces == 1
        # Nothing pending: the barrier is free.
        assert log.flush_group() == 0.0
        assert log.forces == 1

    def test_invalid_group_size_rejected(self):
        with pytest.raises(ValueError):
            LogManager(group_commit=0)


class TestTransactionManager:
    def test_lifecycle(self):
        manager = TransactionManager()
        txn = manager.begin(begin_lsn=1, now_us=0.0)
        assert txn.is_active
        assert txn.txn_id in manager.active
        manager.finish_commit(txn, now_us=50.0)
        assert txn.state is TxnState.COMMITTED
        assert txn.response_time_us == 50.0
        assert manager.committed == 1
        assert txn.txn_id not in manager.active

    def test_abort_path(self):
        manager = TransactionManager()
        txn = manager.begin(1, 0.0)
        manager.finish_abort(txn, 10.0)
        assert txn.state is TxnState.ABORTED
        assert manager.aborted == 1

    def test_double_commit_rejected(self):
        manager = TransactionManager()
        txn = manager.begin(1, 0.0)
        manager.finish_commit(txn, 1.0)
        with pytest.raises(TransactionError):
            manager.finish_commit(txn, 2.0)
        with pytest.raises(TransactionError):
            txn.note_undo(None)

    def test_ids_unique(self):
        manager = TransactionManager()
        ids = {manager.begin(1, 0.0).txn_id for __ in range(10)}
        assert len(ids) == 10

    def test_response_time_none_while_active(self):
        manager = TransactionManager()
        txn = manager.begin(1, 5.0)
        assert txn.response_time_us is None

    def test_undo_chain_order(self):
        manager = TransactionManager()
        txn = manager.begin(1, 0.0)
        txn.note_undo("a")
        txn.note_undo("b")
        assert txn.undo == ["a", "b"]
