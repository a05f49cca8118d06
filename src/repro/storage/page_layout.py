"""Slotted NSM database pages with a delta-record area and change tracking.

The layout extends the traditional NSM slotted page exactly as the
paper's Figure 4 does::

    +--------+---------------------+------......------+------------+
    | header | record heap  ->     |   free space     | delta area |
    |        |                     |  <- slot table   | (erased)   |
    +--------+---------------------+------------------+------------+

* ``header`` (32 bytes): magic, page id, PageLSN, slot count, free
  pointer, flags, delta-area size, optional content checksum.
* the record heap grows upward from the header; the slot table (4-byte
  ``offset,length`` entries) grows downward from the delta area.
* the delta-record area occupies the page's tail and is kept erased
  (``0xFF``) in the buffered image — its on-flash twin is where
  ``write_delta`` appends land.

Every mutation funnels through :meth:`SlottedPage.write_bytes`, which
records the offsets of bytes that actually changed.  That byte-granular
tracking is what IPA encodes into delta records at eviction; it also
implements the paper's observation that e.g. of an 8-byte PageLSN
usually only the least-significant bytes change.
"""

from __future__ import annotations

import zlib

from ..errors import PageFormatError, PageFullError, RecordNotFoundError

HEADER_SIZE = 32
MAGIC = 0xD817
SLOT_SIZE = 4

_OFF_MAGIC = 0
_OFF_PAGE_ID = 2
_OFF_LSN = 6
_OFF_SLOT_COUNT = 14
_OFF_FREE_PTR = 16
_OFF_FLAGS = 18
_OFF_DELTA_SIZE = 20
#: Optional CRC32 over the page content (InnoDB-style FIL checksum).
_OFF_CHECKSUM = 24


def delta_area_size_of(image: bytes) -> int:
    """Delta-area size stored in a raw page image's header.

    Lets layout-agnostic components (the IPA manager) learn a page's
    reserved area without constructing a :class:`SlottedPage` — needed
    because under selective placement different regions' pages reserve
    different amounts (possibly none).
    """
    return int.from_bytes(image[_OFF_DELTA_SIZE:_OFF_DELTA_SIZE + 2], "big")


class SlottedPage:
    """A database page image plus its in-buffer change tracker."""

    #: Tracked-offset cap: far beyond any delta budget, it merely bounds
    #: memory on pathological pages (e.g. after compaction).
    TRACK_LIMIT = 4096

    __slots__ = (
        "image",
        "tracked",
        "track_overflowed",
        "_page_size",
        "_delta_size",
    )

    def __init__(self, image: bytearray) -> None:
        if len(image) < HEADER_SIZE:
            raise PageFormatError("image smaller than a page header")
        if int.from_bytes(image[_OFF_MAGIC:_OFF_MAGIC + 2], "big") != MAGIC:
            raise PageFormatError("bad page magic")
        self.image = image
        self.tracked: set[int] = set()
        #: The one give-up state (paper Section 6.2): set when tracking
        #: overflowed, it sends the next flush out of place, and only
        #: that flush's :meth:`reset_tracking` clears it.
        self.track_overflowed = False
        self._page_size = len(image)
        self._delta_size = int.from_bytes(image[_OFF_DELTA_SIZE:_OFF_DELTA_SIZE + 2], "big")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def format(cls, page_id: int, page_size: int, delta_area_size: int = 0) -> "SlottedPage":
        """Create a freshly formatted empty page."""
        if HEADER_SIZE + SLOT_SIZE + delta_area_size >= page_size:
            raise PageFormatError(
                f"page of {page_size}B cannot host a {delta_area_size}B delta area"
            )
        image = bytearray(page_size)
        image[_OFF_MAGIC:_OFF_MAGIC + 2] = MAGIC.to_bytes(2, "big")
        image[_OFF_PAGE_ID:_OFF_PAGE_ID + 4] = page_id.to_bytes(4, "big")
        image[_OFF_FREE_PTR:_OFF_FREE_PTR + 2] = HEADER_SIZE.to_bytes(2, "big")
        image[_OFF_DELTA_SIZE:_OFF_DELTA_SIZE + 2] = delta_area_size.to_bytes(2, "big")
        if delta_area_size:
            image[page_size - delta_area_size :] = b"\xff" * delta_area_size
        page = cls(image)
        page.tracked.clear()  # formatting is not an update
        return page

    # ------------------------------------------------------------------
    # Raw byte access with tracking
    # ------------------------------------------------------------------

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Overwrite page bytes, tracking the offsets that changed."""
        end = offset + len(data)
        if offset < 0 or end > self._page_size:
            raise PageFormatError(f"write [{offset}, {end}) outside page")
        image = self.image
        if not self.track_overflowed:
            tracked = self.tracked
            for i, value in enumerate(data):
                if image[offset + i] != value:
                    tracked.add(offset + i)
                    image[offset + i] = value
            if len(tracked) > self.TRACK_LIMIT:
                self.track_overflowed = True
        else:
            image[offset:end] = data

    def reset_tracking(self) -> None:
        """Forget tracked changes (after a flush materialized them)."""
        self.tracked.clear()
        self.track_overflowed = False

    def classify_tracked(self) -> tuple[list[int], list[int]]:
        """Split tracked offsets into (body, metadata) lists, sorted.

        Metadata is the page header plus the slot table (the paper's
        header/footer); everything between them is tuple data.
        """
        floor = self.slot_table_floor
        body: list[int] = []
        meta: list[int] = []
        for offset in sorted(self.tracked):
            if HEADER_SIZE <= offset < floor:
                body.append(offset)
            else:
                meta.append(offset)
        return body, meta

    # ------------------------------------------------------------------
    # Header fields
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def page_id(self) -> int:
        return int.from_bytes(self.image[_OFF_PAGE_ID:_OFF_PAGE_ID + 4], "big")

    @property
    def lsn(self) -> int:
        return int.from_bytes(self.image[_OFF_LSN:_OFF_LSN + 8], "big")

    def set_lsn(self, lsn: int) -> None:
        """Stamp the PageLSN (tracked: usually 1-2 bytes change)."""
        self.write_bytes(_OFF_LSN, lsn.to_bytes(8, "big"))

    @property
    def slot_count(self) -> int:
        return int.from_bytes(self.image[_OFF_SLOT_COUNT:_OFF_SLOT_COUNT + 2], "big")

    def _set_slot_count(self, count: int) -> None:
        self.write_bytes(_OFF_SLOT_COUNT, count.to_bytes(2, "big"))

    @property
    def free_ptr(self) -> int:
        return int.from_bytes(self.image[_OFF_FREE_PTR:_OFF_FREE_PTR + 2], "big")

    def _set_free_ptr(self, value: int) -> None:
        self.write_bytes(_OFF_FREE_PTR, value.to_bytes(2, "big"))

    def compute_checksum(self) -> int:
        """CRC32 over the page content, excluding the checksum field
        itself and the delta area (whose flash twin evolves separately)."""
        image = self.image
        head = bytes(image[:_OFF_CHECKSUM])
        body = bytes(image[_OFF_CHECKSUM + 4 : self.delta_area_offset])
        return zlib.crc32(body, zlib.crc32(head)) & 0xFFFFFFFF

    def update_checksum(self) -> None:
        """Stamp the checksum (tracked like any metadata change).

        Engines emulating InnoDB's FIL checksum call this on every
        flush; the ~4 changed bytes per flush are what give InnoDB its
        gross-update-size floor (see the LinkBench analysis).
        """
        self.write_bytes(_OFF_CHECKSUM, self.compute_checksum().to_bytes(4, "big"))

    def verify_checksum(self) -> bool:
        """Whether the stored checksum matches the page content."""
        stored = int.from_bytes(self.image[_OFF_CHECKSUM:_OFF_CHECKSUM + 4], "big")
        return stored == self.compute_checksum()

    @property
    def delta_area_size(self) -> int:
        return self._delta_size

    @property
    def delta_area_offset(self) -> int:
        return self._page_size - self._delta_size

    @property
    def slot_table_floor(self) -> int:
        """Lowest byte used by the slot table (its current extent)."""
        return self.delta_area_offset - SLOT_SIZE * self.slot_count

    @property
    def free_space(self) -> int:
        """Bytes available for one more record *and* its slot entry."""
        return max(0, self.slot_table_floor - self.free_ptr - SLOT_SIZE)

    # ------------------------------------------------------------------
    # Slot table
    # ------------------------------------------------------------------

    def _slot_entry_offset(self, slot: int) -> int:
        return self.delta_area_offset - SLOT_SIZE * (slot + 1)

    def _read_slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise RecordNotFoundError(f"slot {slot} out of range")
        base = self._slot_entry_offset(slot)
        offset = int.from_bytes(self.image[base : base + 2], "big")
        length = int.from_bytes(self.image[base + 2 : base + 4], "big")
        return offset, length

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        base = self._slot_entry_offset(slot)
        self.write_bytes(base, offset.to_bytes(2, "big") + length.to_bytes(2, "big"))

    def live_slots(self):
        """Yield the slot numbers of live (non-deleted) records."""
        for slot in range(self.slot_count):
            offset, _ = self._read_slot(slot)
            if offset != 0:
                yield slot

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def slot_for_insert(self, record: bytes) -> int:
        """Slot the next insert of ``record`` will use: the first deleted
        slot, else a new one.  Raises :class:`PageFullError` when neither
        heap space nor a slot is available."""
        if not record:
            raise PageFormatError("empty record")
        slot_count = self.slot_count
        reuse = None
        for slot in range(slot_count):
            offset, _ = self._read_slot(slot)
            if offset == 0:
                reuse = slot
                break
        needed = len(record) + (0 if reuse is not None else SLOT_SIZE)
        if self.slot_table_floor - self.free_ptr < needed:
            raise PageFullError(
                f"record of {len(record)}B does not fit ({self.free_space}B free)"
            )
        return slot_count if reuse is None else reuse

    def insert(self, record: bytes) -> int:
        """Store a record; returns its slot number (deleted slots are
        reused, see :meth:`slot_for_insert`)."""
        slot = self.slot_for_insert(record)
        self.place_record(slot, record)
        return slot

    def place_record(self, slot: int, record: bytes) -> None:
        """Put ``record`` at the heap's free pointer and point ``slot`` at it.

        The one insert placement, forward and redo: deterministic given
        the pre-insert page state, so recovery repeating history lands
        the record at the same heap offset as the original.
        """
        offset = self.free_ptr
        slot_count = self.slot_count
        if self.delta_area_offset - SLOT_SIZE * max(slot_count, slot + 1) - offset < len(record):
            raise PageFullError("record placement does not fit; page state diverged")
        self.write_bytes(offset, record)
        self._set_free_ptr(offset + len(record))
        if slot >= slot_count:
            self._set_slot_count(slot + 1)
        self._write_slot(slot, offset, len(record))

    def read_record(self, slot: int) -> bytes:
        """Bytes of a live record."""
        offset, length = self._read_slot(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        return bytes(self.image[offset : offset + length])

    def record_extent(self, slot: int) -> tuple[int, int]:
        """``(page_offset, length)`` of a live record."""
        offset, length = self._read_slot(slot)
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        return offset, length

    def update_record_bytes(self, slot: int, field_offset: int, data: bytes) -> None:
        """Patch bytes inside a record (fixed-column in-place update)."""
        offset, length = self.record_extent(slot)
        if field_offset + len(data) > length:
            raise PageFormatError("field write beyond record bounds")
        self.write_bytes(offset + field_offset, data)

    def replace_record(self, slot: int, record: bytes) -> None:
        """Replace a record wholesale; may relocate it within the page."""
        offset, length = self.record_extent(slot)
        if len(record) <= length:
            self.write_bytes(offset, record)
            if len(record) != length:
                self._write_slot(slot, offset, len(record))
            return
        if self.slot_table_floor - self.free_ptr < len(record):
            raise PageFullError("no room to relocate the grown record")
        new_offset = self.free_ptr
        self.write_bytes(new_offset, record)
        self._set_free_ptr(new_offset + len(record))
        self._write_slot(slot, new_offset, len(record))

    def delete_record(self, slot: int) -> None:
        """Mark-delete a record (the slot becomes reusable)."""
        self.record_extent(slot)  # raises if already gone
        self._write_slot(slot, 0, 0)

    def slot_entry_patch(self, slot: int, offset: int, length: int) -> tuple[int, bytes, bytes]:
        """``(page_offset, current_bytes, new_bytes)`` that points ``slot``
        at ``(offset, length)`` — a slot-table change as a byte patch."""
        if not 0 <= slot < self.slot_count:
            raise RecordNotFoundError(f"slot {slot} out of range")
        base = self._slot_entry_offset(slot)
        return (
            base,
            bytes(self.image[base : base + SLOT_SIZE]),
            offset.to_bytes(2, "big") + length.to_bytes(2, "big"),
        )

    def compact(self) -> None:
        """Rewrite the record heap densely, reclaiming holes.

        Touches most of the page's bytes, so after compaction the
        change tracker will almost always overflow the delta budget and
        the page will flush out-of-place — which is correct.
        """
        records = []
        for slot in range(self.slot_count):
            offset, length = self._read_slot(slot)
            if offset:
                records.append((slot, bytes(self.image[offset : offset + length])))
        cursor = HEADER_SIZE
        for slot, record in records:
            self.write_bytes(cursor, record)
            self._write_slot(slot, cursor, len(record))
            cursor += len(record)
        self._set_free_ptr(cursor)

    def reset_delta_area(self) -> None:
        """Return the delta area to the erased state.

        Bypasses change tracking: the buffered delta area is a scratch
        mirror of the on-flash slots, not page content — fetch resets
        it after applying the decoded records, and an out-of-place
        write must carry it erased so future appends stay possible.
        """
        if self._delta_size:
            self.image[self.delta_area_offset :] = b"\xff" * self._delta_size
