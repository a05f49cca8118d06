"""Write-ahead log: physiological logging with LSNs, ARIES-style.

The log serves three purposes in this reproduction:

1. **Durability** — redo/undo information lets
   :mod:`repro.storage.recovery` repeat history after a crash and roll
   back losers (retain full records with ``retain=True``).
2. **Flush pressure** — Shore-MT's eager log-space reclamation forces a
   checkpoint (flush of all dirty pages) when a fraction of the log
   space is consumed; the byte counters drive that policy, which is one
   of the two reasons the paper sees host writes *grow* with buffer
   size (Section 8.4, Table 9 discussion).
3. **Workload profiling** — the IPA advisor analyzes the log, "since
   the DB-log contains all information regarding update sizes,
   frequencies or skew" (Section 8.4).

Record kinds and payloads:

``UPDATE``
    byte patches on one page: ``[(page_offset, old_bytes, new_bytes)]``.
``REPLACE``
    whole-record replacement (variable-length change):
    ``(old_record, new_record, old_heap_offset)`` — the offset is what
    lets undo restore the slot entry, as ``DELETE``'s does; it rides in
    the fixed header of the size estimate.
``INSERT``
    a record landing in a slot: ``(record_bytes,)``.
``DELETE``
    a mark-delete: ``(old_heap_offset, old_length)`` — enough to restore
    the slot entry, since mark-delete leaves the heap bytes in place.
``COMMIT`` / ``ABORT`` / ``CHECKPOINT``
    transaction control, no payload.

:func:`apply_record` is the only code that turns such a payload into
page bytes — forward operations, restart redo and undo compensations all
go through it — and :func:`inverse_of` the only code that derives a
record's compensation (always a byte patch or a mark-delete).

Log writes are sequential I/O to a dedicated device, as in Shore-MT;
they are modelled as byte counters plus a configurable force latency,
and never routed through the flash array (the paper's flash statistics
exclude log traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import TransactionError


class LogKind(Enum):
    """Record kinds; payload formats are in the module docstring."""

    UPDATE = "update"
    REPLACE = "replace"
    INSERT = "insert"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


#: The kinds that modify a page (what redo repeats and undo inverts).
PAGE_KINDS = (LogKind.UPDATE, LogKind.REPLACE, LogKind.INSERT, LogKind.DELETE)


#: Fixed serialized overhead per log record (header fields).
_RECORD_HEADER_BYTES = 28


@dataclass(frozen=True)
class LogRecord:
    """One log record; ``payload`` depends on :attr:`kind` (see module doc)."""

    lsn: int
    txn_id: int
    kind: LogKind
    lpn: int = -1
    slot: int = -1
    payload: tuple = ()
    #: For compensation log records (CLRs): the LSN of the record this
    #: CLR undid.  ``-1`` marks an ordinary (non-compensation) record.
    #: Recovery skips loser records whose LSN appears in some CLR's
    #: ``compensates`` and never undoes CLRs themselves, which is what
    #: makes the undo pass restartable after a crash mid-rollback.
    compensates: int = -1

    @property
    def size(self) -> int:
        """Serialized size estimate (drives log-space reclamation)."""
        payload_bytes = 0
        if self.kind is LogKind.UPDATE:
            for __, old, new in self.payload:
                payload_bytes += 4 + len(old) + len(new)
        elif self.kind is LogKind.REPLACE:
            payload_bytes = len(self.payload[0]) + len(self.payload[1])
        elif self.kind is LogKind.INSERT:
            payload_bytes = len(self.payload[0])
        elif self.kind is LogKind.DELETE:
            payload_bytes = 4
        return _RECORD_HEADER_BYTES + payload_bytes


def apply_record(page, kind: LogKind, slot: int, payload: tuple) -> None:
    """Perform on ``page`` the change a page-modifying record describes.

    Do = redo = undo: a forward operation builds its payload and calls
    this, recovery calls it with a logged payload, and undo calls it
    with the payload :func:`inverse_of` derived.
    """
    if kind is LogKind.UPDATE:
        for offset, __, new in payload:
            page.write_bytes(offset, new)
    elif kind is LogKind.INSERT:
        page.place_record(slot, payload[0])
    elif kind is LogKind.REPLACE:
        page.replace_record(slot, payload[1])
    elif kind is LogKind.DELETE:
        page.delete_record(slot)
    else:
        raise TransactionError(f"a {kind.value} record does not modify a page")


def inverse_of(page, record: LogRecord) -> tuple[LogKind, tuple]:
    """``(kind, payload)`` of the compensation that undoes ``record``.

    ``page`` must be in the state ``record`` left it in (later changes
    already undone).  Every inverse puts the slot entry and the record
    bytes back exactly where they were — which is why a later undo on
    the same slot can rely on that state in turn, and why undo never
    needs heap space.
    """
    kind, slot, payload = record.kind, record.slot, record.payload
    if kind is LogKind.UPDATE:
        return LogKind.UPDATE, tuple((offset, new, old) for offset, old, new in payload)
    if kind is LogKind.INSERT:
        return LogKind.DELETE, page.record_extent(slot)
    if kind is LogKind.DELETE:
        # The compensation must replay as exactly what happens here — a
        # slot-entry restoration — so it is logged as a byte patch.  (An
        # INSERT-style CLR would redo at the heap's free pointer, moving
        # the record to a different offset than the original timeline
        # and invalidating later UPDATE records' absolute offsets.)
        offset, length = payload
        return LogKind.UPDATE, (page.slot_entry_patch(slot, offset, length),)
    if kind is LogKind.REPLACE:
        # Same reasoning: heap space is only handed out at the free
        # pointer, so the old extent is still the record's — whether the
        # replacement shrank it in place or relocated a grown copy —
        # and putting it back is a byte patch that cannot run out of room.
        old_record, __, offset = payload
        end = offset + len(old_record)
        return LogKind.UPDATE, (
            (offset, bytes(page.image[offset:end]), old_record),
            page.slot_entry_patch(slot, offset, len(old_record)),
        )
    raise TransactionError(f"cannot undo a {kind.value} record")


class LogManager:
    """Appends log records, tracks space, forces on commit."""

    def __init__(
        self,
        capacity_bytes: int = 64 * 1024 * 1024,
        retain: bool = False,
        force_latency_us: float = 50.0,
        group_commit: int = 1,
    ) -> None:
        if group_commit < 1:
            raise ValueError(f"group_commit must be >= 1, got {group_commit}")
        self.capacity_bytes = capacity_bytes
        self.retain = retain
        self.force_latency_us = force_latency_us
        #: Commits amortized per physical log force.  1 (the default)
        #: is the classic force-on-every-commit discipline; N > 1 models
        #: group commit: commits buffer until the group fills, then one
        #: force covers all N — see :meth:`force` / :meth:`flush_group`.
        self.group_commit = group_commit
        self.records: list[LogRecord] = []
        self._next_lsn = 1
        self.bytes_written = 0
        self.bytes_since_checkpoint = 0
        self.forces = 0
        self.appended = 0
        #: Commits absorbed into an in-progress group (paid no latency).
        self.commits_grouped = 0
        self._group_pending = 0

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def append(
        self,
        txn_id: int,
        kind: LogKind,
        lpn: int = -1,
        slot: int = -1,
        payload: tuple = (),
        compensates: int = -1,
    ) -> LogRecord:
        """Append one record; returns it with its assigned LSN."""
        record = LogRecord(self._next_lsn, txn_id, kind, lpn, slot, payload, compensates)
        self._next_lsn += 1
        self.appended += 1
        self.bytes_written += record.size
        self.bytes_since_checkpoint += record.size
        if self.retain:
            self.records.append(record)
        return record

    def force(self) -> float:
        """Flush the log tail (commit path); returns the charged latency.

        Under group commit the first ``group_commit - 1`` commits of a
        group buffer their records and return 0; the commit that fills
        the group forces once for everyone — one physical force per
        ``group_commit`` commits, the standard amortization.
        """
        self._group_pending += 1
        if self._group_pending < self.group_commit:
            self.commits_grouped += 1
            return 0.0
        # The buffered commits already counted themselves in
        # commits_grouped above, so this force covers a batch of one.
        self._group_pending = 0
        return self.note_force()

    def note_force(self, batch: int = 1) -> float:
        """Account one physical force covering ``batch`` commits.

        The single group-commit accounting primitive: the amortized
        :meth:`force` path and the event-driven
        :class:`~repro.hostq.groupcommit.GroupCommitGate` both charge
        forces through the same counters, so either discipline yields
        one force per group with the surplus commits in
        ``commits_grouped``.  Returns the force latency.
        """
        if batch < 1:
            raise ValueError(f"force batch must cover >= 1 commit, got {batch}")
        self.forces += 1
        if batch > 1:
            self.commits_grouped += batch - 1
        return self.force_latency_us

    def flush_group(self) -> float:
        """Close a partially-filled commit group (shutdown/barrier path).

        Returns the force latency when buffered group-commit records
        were still awaiting their group's force, else 0.0.
        """
        if self._group_pending == 0:
            return 0.0
        self._group_pending = 0
        return self.note_force()

    def space_consumed_fraction(self) -> float:
        """Log space used since the last checkpoint, as a fraction."""
        if self.capacity_bytes <= 0:
            return 0.0
        return self.bytes_since_checkpoint / self.capacity_bytes

    def note_checkpoint(self) -> LogRecord:
        """Record a checkpoint and reclaim the log space behind it."""
        record = self.append(0, LogKind.CHECKPOINT)
        self.bytes_since_checkpoint = 0
        return record
