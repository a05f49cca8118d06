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

Header fields and slot entries are big-endian ``struct`` codecs read
and written in place on the image.  The slot count and free pointer
are held as attributes: read once when the page is built and written
through by their setters.  A constructed page's image is written only
through ``write_bytes`` (and the internal writer behind it), so a byte
patch landing in the header — a redo or an undo — re-reads them.  A
free-slot hint (every slot below it is live) lets an insert skip the
live prefix of the slot table; deleting a slot lowers it, and any other
write into the slot table resets it.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from itertools import compress
from operator import ne

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

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
#: One slot entry ``(offset, length)``; also the adjacent header pair
#: ``(slot_count, free_ptr)`` at ``_OFF_SLOT_COUNT``.
_PAIR = struct.Struct(">HH")
#: Writes up to this many bytes (field patches, LSN and header stamps)
#: are diffed byte by byte; longer ones (records) slice-compare first
#: and diff in C, which only pays off past a few dozen bytes.
_SHORT_WRITE = 16


def delta_area_size_of(image: bytes) -> int:
    """Delta-area size stored in a raw page image's header.

    Lets layout-agnostic components (the IPA manager) learn a page's
    reserved area without constructing a :class:`SlottedPage` — needed
    because under selective placement different regions' pages reserve
    different amounts (possibly none).
    """
    return _U16.unpack_from(image, _OFF_DELTA_SIZE)[0]


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
        "_delta_off",
        "_slot_count",
        "_free_ptr",
        "_hint",
    )

    def __init__(self, image: bytearray) -> None:
        if len(image) < HEADER_SIZE:
            raise PageFormatError("image smaller than a page header")
        if _U16.unpack_from(image, _OFF_MAGIC)[0] != MAGIC:
            raise PageFormatError("bad page magic")
        self.image = image
        self.tracked: set[int] = set()
        #: The one give-up state (paper Section 6.2): set when tracking
        #: overflowed, it sends the next flush out of place, and only
        #: that flush's :meth:`reset_tracking` clears it.
        self.track_overflowed = False
        self._page_size = len(image)
        self._delta_size = _U16.unpack_from(image, _OFF_DELTA_SIZE)[0]
        self._delta_off = self._page_size - self._delta_size
        self._slot_count, self._free_ptr = _PAIR.unpack_from(image, _OFF_SLOT_COUNT)
        #: Free-slot hint: every slot below it is live, and it never
        #: exceeds the slot count.
        self._hint = 0

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
        _U16.pack_into(image, _OFF_MAGIC, MAGIC)
        _U32.pack_into(image, _OFF_PAGE_ID, page_id)
        _U16.pack_into(image, _OFF_FREE_PTR, HEADER_SIZE)
        _U16.pack_into(image, _OFF_DELTA_SIZE, delta_area_size)
        if delta_area_size:
            image[page_size - delta_area_size :] = b"\xff" * delta_area_size
        return cls(image)

    # ------------------------------------------------------------------
    # Raw byte access with tracking
    # ------------------------------------------------------------------

    def write_bytes(self, offset: int, data: bytes) -> None:
        """Overwrite page bytes, tracking the offsets that changed.

        A write that starts in the header re-reads the cached slot count
        and free pointer; a write into the header or the slot table
        resets the free-slot hint, since it may have turned a live slot
        dead.
        """
        end = offset + len(data)
        if offset < 0 or end > self._page_size:
            raise PageFormatError(f"write [{offset}, {end}) outside page")
        self._write(offset, end, data)
        if offset < HEADER_SIZE:
            self._slot_count, self._free_ptr = _PAIR.unpack_from(self.image, _OFF_SLOT_COUNT)
            self._hint = 0
        elif end > self._delta_off - SLOT_SIZE * self._slot_count:
            self._hint = 0

    def _write(self, offset: int, end: int, data: bytes) -> None:
        """Store ``data`` at ``[offset, end)``, tracking the offsets that
        change.  Leaves the cached header fields and the free-slot hint
        to the caller."""
        image = self.image
        if self.track_overflowed:
            image[offset:end] = data
            return
        tracked = self.tracked
        if end - offset <= _SHORT_WRITE:
            for index, value in enumerate(data, offset):
                if image[index] != value:
                    tracked.add(index)
                    image[index] = value
        else:
            old = image[offset:end]
            if old == data:
                return
            tracked.update(compress(range(offset, end), map(ne, old, data)))
            image[offset:end] = data
        if len(tracked) > self.TRACK_LIMIT:
            self.track_overflowed = True

    def reset_tracking(self) -> None:
        """Forget tracked changes (after a flush materialized them)."""
        self.tracked.clear()
        self.track_overflowed = False

    def classify_tracked(self) -> tuple[list[int], list[int]]:
        """Split tracked offsets into (body, metadata) lists, sorted.

        Metadata is the page header plus the slot table (the paper's
        header/footer); everything between them is tuple data.
        """
        ordered = sorted(self.tracked)
        low = bisect_left(ordered, HEADER_SIZE)
        high = bisect_left(ordered, self._delta_off - SLOT_SIZE * self._slot_count, low)
        return ordered[low:high], ordered[:low] + ordered[high:]

    # ------------------------------------------------------------------
    # Header fields
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def page_id(self) -> int:
        return _U32.unpack_from(self.image, _OFF_PAGE_ID)[0]

    @property
    def lsn(self) -> int:
        return _U64.unpack_from(self.image, _OFF_LSN)[0]

    def set_lsn(self, lsn: int) -> None:
        """Stamp the PageLSN (tracked: usually 1-2 bytes change)."""
        self._write(_OFF_LSN, _OFF_LSN + 8, _U64.pack(lsn))

    @property
    def slot_count(self) -> int:
        return self._slot_count

    def _set_slot_count(self, count: int) -> None:
        self._write(_OFF_SLOT_COUNT, _OFF_SLOT_COUNT + 2, _U16.pack(count))
        self._slot_count = count

    @property
    def free_ptr(self) -> int:
        return self._free_ptr

    def _set_free_ptr(self, value: int) -> None:
        self._write(_OFF_FREE_PTR, _OFF_FREE_PTR + 2, _U16.pack(value))
        self._free_ptr = value

    def compute_checksum(self) -> int:
        """CRC32 over the page content, excluding the checksum field
        itself and the delta area (whose flash twin evolves separately)."""
        image = self.image
        head = image[:_OFF_CHECKSUM]
        body = image[_OFF_CHECKSUM + 4 : self._delta_off]
        return zlib.crc32(body, zlib.crc32(head)) & 0xFFFFFFFF

    def update_checksum(self) -> None:
        """Stamp the checksum (tracked like any metadata change).

        Engines emulating InnoDB's FIL checksum call this on every
        flush; the ~4 changed bytes per flush are what give InnoDB its
        gross-update-size floor (see the LinkBench analysis).
        """
        self._write(_OFF_CHECKSUM, _OFF_CHECKSUM + 4, _U32.pack(self.compute_checksum()))

    def verify_checksum(self) -> bool:
        """Whether the stored checksum matches the page content."""
        return _U32.unpack_from(self.image, _OFF_CHECKSUM)[0] == self.compute_checksum()

    @property
    def delta_area_size(self) -> int:
        return self._delta_size

    @property
    def delta_area_offset(self) -> int:
        return self._delta_off

    @property
    def slot_table_floor(self) -> int:
        """Lowest byte used by the slot table (its current extent)."""
        return self._delta_off - SLOT_SIZE * self._slot_count

    @property
    def free_space(self) -> int:
        """Bytes available for one more record *and* its slot entry."""
        return max(
            0, self._delta_off - SLOT_SIZE * (self._slot_count + 1) - self._free_ptr
        )

    # ------------------------------------------------------------------
    # Slot table
    # ------------------------------------------------------------------

    def _read_slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self._slot_count:
            raise RecordNotFoundError(f"slot {slot} out of range")
        return _PAIR.unpack_from(self.image, self._delta_off - SLOT_SIZE * (slot + 1))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        base = self._delta_off - SLOT_SIZE * (slot + 1)
        self._write(base, base + SLOT_SIZE, _PAIR.pack(offset, length))
        if not offset and slot < self._hint:
            self._hint = slot

    def live_slots(self) -> list[int]:
        """Slot numbers of live (non-deleted) records, ascending."""
        image = self.image
        top = self._delta_off - SLOT_SIZE
        return [
            slot for slot in range(self._slot_count)
            if _U16.unpack_from(image, top - SLOT_SIZE * slot)[0]
        ]

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def slot_for_insert(self, record: bytes) -> int:
        """Slot the next insert of ``record`` will use: the first deleted
        slot, else a new one.  Raises :class:`PageFullError` when neither
        heap space nor a slot is available."""
        if not record:
            raise PageFormatError("empty record")
        image = self.image
        top = self._delta_off - SLOT_SIZE
        count = self._slot_count
        slot = self._hint
        while slot < count and _U16.unpack_from(image, top - SLOT_SIZE * slot)[0]:
            slot += 1
        self._hint = slot
        needed = len(record) + (SLOT_SIZE if slot == count else 0)
        if self._delta_off - SLOT_SIZE * count - self._free_ptr < needed:
            raise PageFullError(
                f"record of {len(record)}B does not fit ({self.free_space}B free)"
            )
        return slot

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
        offset = self._free_ptr
        count = self._slot_count
        end = offset + len(record)
        if self._delta_off - SLOT_SIZE * max(count, slot + 1) < end:
            raise PageFullError("record placement does not fit; page state diverged")
        self._write(offset, end, record)
        self._set_free_ptr(end)
        if slot >= count:
            self._set_slot_count(slot + 1)
        self._write_slot(slot, offset, len(record))

    def read_record(self, slot: int) -> bytes:
        """Bytes of a live record."""
        # _read_slot inlined: this is the hottest read accessor.
        if not 0 <= slot < self._slot_count:
            raise RecordNotFoundError(f"slot {slot} out of range")
        offset, length = _PAIR.unpack_from(self.image, self._delta_off - SLOT_SIZE * (slot + 1))
        if offset == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        return bytes(self.image[offset : offset + length])

    def record_extent(self, slot: int) -> tuple[int, int]:
        """``(page_offset, length)`` of a live record."""
        extent = self._read_slot(slot)
        if extent[0] == 0:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        return extent

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
        new_offset = self._free_ptr
        end = new_offset + len(record)
        if self._delta_off - SLOT_SIZE * self._slot_count < end:
            raise PageFullError("no room to relocate the grown record")
        self._write(new_offset, end, record)
        self._set_free_ptr(end)
        self._write_slot(slot, new_offset, len(record))

    def delete_record(self, slot: int) -> None:
        """Mark-delete a record (the slot becomes reusable)."""
        self.record_extent(slot)  # raises if already gone
        self._write_slot(slot, 0, 0)

    def slot_entry_patch(self, slot: int, offset: int, length: int) -> tuple[int, bytes, bytes]:
        """``(page_offset, current_bytes, new_bytes)`` that points ``slot``
        at ``(offset, length)`` — a slot-table change as a byte patch."""
        if not 0 <= slot < self._slot_count:
            raise RecordNotFoundError(f"slot {slot} out of range")
        base = self._delta_off - SLOT_SIZE * (slot + 1)
        return base, bytes(self.image[base : base + SLOT_SIZE]), _PAIR.pack(offset, length)

    def compact(self) -> None:
        """Rewrite the record heap densely, reclaiming holes.

        Touches most of the page's bytes, so after compaction the
        change tracker will almost always overflow the delta budget and
        the page will flush out-of-place — which is correct.
        """
        image = self.image
        records = []
        for slot in range(self._slot_count):
            offset, length = self._read_slot(slot)
            if offset:
                records.append((slot, bytes(image[offset : offset + length])))
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
            self.image[self._delta_off :] = b"\xff" * self._delta_size
