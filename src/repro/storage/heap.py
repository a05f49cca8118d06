"""Heap tables: records in slotted pages, addressed by RID.

A :class:`Table` owns a growing list of database pages, a free-space
map, and (optionally) an in-memory hash index on its primary key.  All
page access goes through the engine's buffer pool.  An operation never
writes page bytes itself: it builds the log payload that describes the
change and hands it to the engine's one logged page mutation
(:meth:`~repro.storage.engine.StorageEngine.log_page_change`), which
applies, logs and chains it to the running transaction for rollback.

Update granularity is the whole point of the reproduction: a
fixed-column update patches exactly the bytes of that column inside the
page, so the page's byte tracker sees e.g. a 4-byte ``Int32`` balance
update as (usually) a single changed least-significant byte.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, NamedTuple

from ..errors import PageFormatError, PageFullError, RecordNotFoundError, SchemaError
from .page_layout import SLOT_SIZE
from .schema import Schema
from .wal import LogKind


class RID(NamedTuple):
    """Record id: logical page number + slot within the page."""

    lpn: int
    slot: int


class Table:
    """A heap file of fixed-schema records.

    Created through :meth:`repro.storage.engine.StorageEngine.create_table`;
    not constructed directly.
    """

    def __init__(self, engine, name: str, schema: Schema, key: list[str] | None = None) -> None:
        self._engine = engine
        self.name = name
        self.schema = schema
        self.pages: list[int] = []
        #: Approximate free bytes per page, refreshed on every touch.
        self._free: dict[int, int] = {}
        #: Pages believed to have insert space (stack; top checked first).
        self._candidates: list[int] = []
        self._candidate_set: set[int] = set()
        self.key_columns = list(key) if key else None
        key_indexes = [schema.column_index(name) for name in key or ()]
        self._key_indexes = frozenset(key_indexes)
        #: Value row -> primary-key value (a bare value for a one-column
        #: key, which :meth:`key_of` wraps); None without a key.
        self._key_getter = itemgetter(*key_indexes) if key_indexes else None
        self._composite_key = len(key_indexes) > 1
        #: Primary-key hash index: key tuple -> RID.
        self.index: dict[tuple, RID] | None = {} if key else None
        #: Secondary B+-tree indexes, maintained on every mutation
        #: (see :mod:`repro.storage.secondary`).
        self.secondary_indexes: list = []
        self.row_count = 0

    # ------------------------------------------------------------------
    # Key helpers
    # ------------------------------------------------------------------

    def key_of(self, values) -> tuple:
        """Primary-key tuple of a value row."""
        getter = self._key_getter
        if getter is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        key = getter(values)
        return key if self._composite_key else (key,)

    def lookup(self, *key) -> RID:
        """RID of the record with the given primary key."""
        if self.index is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        try:
            return self.index[tuple(key)]
        except KeyError as exc:
            raise RecordNotFoundError(f"{self.name}: no key {key}") from exc

    # ------------------------------------------------------------------
    # Index maintenance — the one place that keeps the primary-key
    # index, every secondary index and ``row_count`` in step with the
    # heap; the forward operations below and the engine's undo call it.
    # ------------------------------------------------------------------

    def index_values(self, page, slot: int):
        """Row values at a live slot if the table keeps an index, else ``None``."""
        if self.index is not None or self.secondary_indexes:
            return self.schema.unpack(page.read_record(slot))
        return None

    def row_added(self, rid: RID, values) -> None:
        """A row appeared at ``rid`` (``values`` as from :meth:`index_values`)."""
        if self.index is not None:
            self.index[self.key_of(values)] = rid
        for secondary in self.secondary_indexes:
            secondary.note_insert(values, rid)
        self.row_count += 1

    def row_removed(self, rid: RID, values) -> None:
        """The row at ``rid`` is going away."""
        if self.index is not None:
            self.index.pop(self.key_of(values), None)
        for secondary in self.secondary_indexes:
            secondary.note_delete(values, rid)
        self.row_count -= 1

    def row_changed(self, rid: RID, old_values, new_values) -> None:
        """Non-key columns of the row at ``rid`` changed."""
        for secondary in self.secondary_indexes:
            secondary.note_update(old_values, new_values, rid)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def insert(self, txn, values) -> RID:
        """Insert one record; returns its RID."""
        record = self.schema.pack(values)
        needed = len(record) + SLOT_SIZE
        engine = self._engine
        while True:
            lpn = self._page_with_space(needed)
            frame = engine.pin(lpn)
            try:
                slot = frame.page.slot_for_insert(record)
            except PageFullError:
                self._free[lpn] = 0
                engine.unpin(lpn, dirty=False)
                continue
            break
        engine.log_page_change(frame.page, lpn, slot, LogKind.INSERT, (record,), txn)
        self._free[lpn] = frame.page.free_space
        engine.unpin(lpn, dirty=True)
        rid = RID(lpn, slot)
        self.row_added(rid, values)
        engine.charge_cpu()
        return rid

    def read(self, rid: RID):
        """Read one record as a value tuple."""
        engine = self._engine
        frame = engine.pin(rid.lpn)
        try:
            record = frame.page.read_record(rid.slot)
        finally:
            engine.unpin(rid.lpn, dirty=False)
        engine.charge_cpu()
        return self.schema.unpack(record)

    def update(self, txn, rid: RID, changes: dict) -> None:
        """Update columns of one record.

        Fixed-column changes are byte patches in place; any
        variable-length change replaces the whole record (possibly
        relocating it within the page).
        """
        if not changes:
            return
        schema = self.schema
        column_index = schema.column_index
        fixed_fields = schema.fixed_fields
        key_indexes = self._key_indexes
        indexed = {}
        fixed = True
        for name, value in changes.items():
            index = column_index(name)
            if index in key_indexes:
                raise SchemaError("primary-key columns cannot be updated")
            if fixed_fields[index] is None:
                fixed = False
            indexed[index] = value
        old_values = self.read(rid) if self.secondary_indexes else None
        relocated = False
        if fixed:
            self._update_fixed(txn, rid, indexed)
        else:
            relocated = self._update_replace(txn, rid, indexed)
        if old_values is not None and not relocated:
            # A cross-page relocation went through delete()+insert(),
            # which maintained the secondaries already.
            new_values = list(old_values)
            for column_index, value in indexed.items():
                new_values[column_index] = value
            self.row_changed(rid, old_values, tuple(new_values))
        self._engine.charge_cpu()

    def _update_fixed(self, txn, rid: RID, indexed: dict) -> None:
        engine = self._engine
        frame = engine.pin(rid.lpn)
        page = frame.page
        try:
            record_offset, length = page.record_extent(rid.slot)
            fixed_fields = self.schema.fixed_fields
            patches = []
            for column_index, value in indexed.items():
                field_offset, column_type = fixed_fields[column_index]
                new = column_type.pack(value)
                page_offset = record_offset + field_offset
                old = bytes(page.image[page_offset : page_offset + len(new)])
                if old == new:
                    continue
                if field_offset + len(new) > length:
                    raise PageFormatError("field write beyond record bounds")
                patches.append((page_offset, old, new))
            if not patches:
                engine.unpin(rid.lpn, dirty=False)
                return
            engine.log_page_change(
                page, rid.lpn, rid.slot, LogKind.UPDATE, tuple(patches), txn
            )
        except Exception:
            engine.unpin(rid.lpn, dirty=True)
            raise
        engine.unpin(rid.lpn, dirty=True)

    def _update_replace(self, txn, rid: RID, indexed: dict) -> bool:
        """Replace a record wholesale; True if relocated to another page."""
        engine = self._engine
        frame = engine.pin(rid.lpn)
        page = frame.page
        try:
            offset, length = page.record_extent(rid.slot)
            old_record = bytes(page.image[offset : offset + length])
            values = list(self.schema.unpack(old_record))
            for column_index, value in indexed.items():
                values[column_index] = value
            new_record = self.schema.pack(values)
            engine.log_page_change(
                page, rid.lpn, rid.slot, LogKind.REPLACE,
                (old_record, new_record, offset), txn,
            )
            self._free[rid.lpn] = page.free_space
        except PageFullError:
            engine.unpin(rid.lpn, dirty=True)
            # Relocate to another page: delete + insert (rare slow path).
            self.delete(txn, rid)
            self.insert(txn, values)
            return True
        except Exception:
            engine.unpin(rid.lpn, dirty=True)
            raise
        engine.unpin(rid.lpn, dirty=True)
        return False

    def delete(self, txn, rid: RID) -> None:
        """Mark-delete one record."""
        engine = self._engine
        frame = engine.pin(rid.lpn)
        page = frame.page
        try:
            extent = page.record_extent(rid.slot)
            self.row_removed(rid, self.index_values(page, rid.slot))
            engine.log_page_change(
                page, rid.lpn, rid.slot, LogKind.DELETE, extent, txn
            )
            self._note_space_freed(rid.lpn, page.free_space)
        except Exception:
            engine.unpin(rid.lpn, dirty=True)
            raise
        engine.unpin(rid.lpn, dirty=True)
        engine.charge_cpu()

    def scan(self) -> Iterator[tuple[RID, tuple]]:
        """Full scan yielding ``(rid, values)`` for every live record."""
        engine = self._engine
        for lpn in self.pages:
            frame = engine.pin(lpn)
            try:
                rows = [
                    (RID(lpn, slot), self.schema.unpack(frame.page.read_record(slot)))
                    for slot in frame.page.live_slots()
                ]
            finally:
                engine.unpin(lpn, dirty=False)
            yield from rows

    def rebuild_index(self) -> None:
        """Re-derive all indexes by scanning (used after recovery)."""
        count = 0
        if self.index is not None:
            self.index.clear()
        for rid, values in self.scan():
            if self.index is not None:
                self.index[self.key_of(values)] = rid
            count += 1
        self.row_count = count
        for secondary in self.secondary_indexes:
            secondary.rebuild()

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------

    def _page_with_space(self, needed: int) -> int:
        if needed > self._engine.page_free_space_hint:
            raise PageFullError(
                f"record needs {needed}B; a fresh page offers at most "
                f"{self._engine.page_free_space_hint}B"
            )
        while self._candidates:
            lpn = self._candidates[-1]
            if self._free.get(lpn, 0) >= needed:
                return lpn
            self._candidates.pop()
            self._candidate_set.discard(lpn)
        lpn = self._engine.allocate_page(self)
        self.pages.append(lpn)
        self._free[lpn] = self._engine.page_free_space_hint
        self._candidates.append(lpn)
        self._candidate_set.add(lpn)
        return lpn

    def _note_space_freed(self, lpn: int, free: int) -> None:
        """A delete opened space on a page: make it an insert candidate."""
        self._free[lpn] = free
        if lpn not in self._candidate_set:
            self._candidates.append(lpn)
            self._candidate_set.add(lpn)
