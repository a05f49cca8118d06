"""Secondary indexes: B+-trees over table columns, kept in sync.

A :class:`TableIndex` maps an order-preserving encoding of one or more
columns to RIDs via the disk-resident
:class:`~repro.storage.btree.BTreeIndex`.  Non-unique indexes are
supported the classic way: the RID is appended to the key bytes, making
every tree entry unique while prefix range scans return all matches.

Maintenance is automatic: tables notify their secondary indexes on
insert / delete / update (and the engine does so for rollback and
recovery paths), so index lookups always agree with the heap.
"""

from __future__ import annotations

import contextlib

from ..errors import RecordNotFoundError, SchemaError, StorageError
from .btree import BTreeIndex
from .heap import RID, Table
from .schema import Char, ColumnType, Int32, Int64

_RID_SUFFIX = 6  # lpn (4B) + slot (2B)


def _encode_value(column_type: ColumnType, value) -> bytes:
    """Order-preserving fixed-width encoding of one column value."""
    if isinstance(column_type, Int32):
        return ((int(value) & 0xFFFFFFFF) ^ 0x80000000).to_bytes(4, "big")
    if isinstance(column_type, Int64):
        return (
            (int(value) & 0xFFFFFFFFFFFFFFFF) ^ 0x8000000000000000
        ).to_bytes(8, "big")
    if isinstance(column_type, Char):
        return column_type.pack(value)
    raise SchemaError(
        f"column type {type(column_type).__name__} is not indexable "
        "(fixed-width types only)"
    )


class TableIndex:
    """A secondary index over a table's fixed-width columns."""

    def __init__(self, engine, name: str, table: Table,
                 columns: list[str], region: str | None = None) -> None:
        self.name = name
        self.table = table
        self.columns = list(columns)
        self._indexes = [table.schema.column_index(c) for c in columns]
        self._types = [table.schema.columns[i].type for i in self._indexes]
        for column_type in self._types:
            if column_type.size is None:
                raise SchemaError("variable-length columns are not indexable")
        self._prefix_width = sum(t.size for t in self._types)
        self._tree = BTreeIndex(
            engine, name, key_width=self._prefix_width + _RID_SUFFIX,
            region=region,
        )

    # ------------------------------------------------------------------
    # Key encoding
    # ------------------------------------------------------------------

    def _prefix(self, values) -> bytes:
        parts = []
        for column_type, index in zip(self._types, self._indexes):
            parts.append(_encode_value(column_type, values[index]))
        return b"".join(parts)

    def _prefix_from_key(self, key_values) -> bytes:
        if len(key_values) != len(self._types):
            raise SchemaError(
                f"index {self.name!r} spans {len(self._types)} columns"
            )
        return b"".join(
            _encode_value(t, v) for t, v in zip(self._types, key_values)
        )

    def _full_key(self, values, rid: RID) -> bytes:
        return (self._prefix(values)
                + rid.lpn.to_bytes(4, "big") + rid.slot.to_bytes(2, "big"))

    # ------------------------------------------------------------------
    # Maintenance (called by Table and the engine)
    # ------------------------------------------------------------------

    def note_insert(self, values, rid: RID) -> None:
        """Idempotent: re-inserting an existing entry is a no-op.

        Idempotence matters on the recovery-undo path, where the
        on-flash tree may already agree with the state being restored.
        """
        with contextlib.suppress(StorageError):
            self._tree.insert(self._full_key(values, rid), rid)

    def note_delete(self, values, rid: RID) -> None:
        """Idempotent: deleting an absent entry is a no-op (see above)."""
        with contextlib.suppress(RecordNotFoundError):
            self._tree.delete(self._full_key(values, rid))

    def note_update(self, old_values, new_values, rid: RID) -> None:
        """Move the entry when an indexed column changed (idempotent)."""
        old_prefix = self._prefix(old_values)
        new_prefix = self._prefix(new_values)
        if old_prefix != new_prefix:
            self.note_delete(old_values, rid)
            self.note_insert(new_values, rid)

    def rebuild(self) -> None:
        """Re-derive the index from a heap scan (recovery path)."""
        # B-trees have no bulk delete; rebuild into a fresh tree, in
        # the region the index was placed in.
        self._tree = BTreeIndex(
            self.table._engine, self.name,
            key_width=self._prefix_width + _RID_SUFFIX,
            region=self._tree.region.name,
        )
        for rid, values in self.table.scan():
            self.note_insert(values, rid)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search(self, *key_values) -> list[RID]:
        """All RIDs whose indexed columns equal ``key_values``, in RID order."""
        prefix = self._prefix_from_key(key_values)
        low = prefix + b"\x00" * _RID_SUFFIX
        high = prefix + b"\xff" * _RID_SUFFIX
        return [rid for __, rid in self._tree.range_scan(low, high)]

    def range(self, low_values, high_values) -> list[tuple[bytes, RID]]:
        """Entries with ``low <= columns <= high`` (inclusive bounds)."""
        low = self._prefix_from_key(low_values) + b"\x00" * _RID_SUFFIX
        high = self._prefix_from_key(high_values) + b"\xff" * _RID_SUFFIX
        return list(self._tree.range_scan(low, high))

    def __len__(self) -> int:
        return self._tree.entry_count
