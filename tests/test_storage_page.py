"""Unit tests for the slotted page layout and its change tracker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PageFormatError, PageFullError, RecordNotFoundError
from repro.storage import HEADER_SIZE, LogKind, LogRecord, SlottedPage
from repro.storage.wal import apply_record, inverse_of


def make_page(page_size=512, delta=64):
    return SlottedPage.format(page_id=7, page_size=page_size, delta_area_size=delta)


class TestFormat:
    def test_fresh_page_fields(self):
        page = make_page()
        assert page.page_id == 7
        assert page.lsn == 0
        assert page.slot_count == 0
        assert page.free_ptr == HEADER_SIZE
        assert page.delta_area_size == 64
        assert page.delta_area_offset == 448

    def test_delta_area_starts_erased(self):
        page = make_page()
        assert bytes(page.image[448:]) == b"\xff" * 64

    def test_format_validates_sizes(self):
        with pytest.raises(PageFormatError):
            SlottedPage.format(0, 64, 60)

    def test_parse_roundtrip(self):
        page = make_page()
        page.insert(b"hello")
        clone = SlottedPage(bytearray(page.image))
        assert clone.read_record(0) == b"hello"
        assert clone.delta_area_size == 64

    def test_bad_magic_rejected(self):
        with pytest.raises(PageFormatError):
            SlottedPage(bytearray(512))


class TestRecords:
    def test_insert_read(self):
        page = make_page()
        slot = page.insert(b"record-one")
        assert page.read_record(slot) == b"record-one"
        assert page.slot_count == 1

    def test_multiple_inserts(self):
        page = make_page()
        slots = [page.insert(f"r{i}".encode()) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]
        for i, slot in enumerate(slots):
            assert page.read_record(slot) == f"r{i}".encode()

    def test_page_full(self):
        page = make_page(page_size=128, delta=0)
        with pytest.raises(PageFullError):
            for __ in range(100):
                page.insert(b"x" * 20)

    def test_delete_and_slot_reuse(self):
        page = make_page()
        a = page.insert(b"aaaa")
        page.insert(b"bbbb")
        page.delete_record(a)
        with pytest.raises(RecordNotFoundError):
            page.read_record(a)
        c = page.insert(b"cccc")
        assert c == a  # deleted slot reused
        assert page.read_record(c) == b"cccc"

    def test_double_delete_raises(self):
        page = make_page()
        slot = page.insert(b"x")
        page.delete_record(slot)
        with pytest.raises(RecordNotFoundError):
            page.delete_record(slot)

    def test_update_in_place(self):
        page = make_page()
        slot = page.insert(b"abcdef")
        page.update_record_bytes(slot, 2, b"XY")
        assert page.read_record(slot) == b"abXYef"

    def test_update_beyond_record_raises(self):
        page = make_page()
        slot = page.insert(b"abc")
        with pytest.raises(PageFormatError):
            page.update_record_bytes(slot, 2, b"LONG")

    def test_replace_same_size(self):
        page = make_page()
        slot = page.insert(b"aaaa")
        page.replace_record(slot, b"bbbb")
        assert page.read_record(slot) == b"bbbb"

    def test_replace_smaller_shrinks(self):
        page = make_page()
        slot = page.insert(b"aaaaaaaa")
        page.replace_record(slot, b"bb")
        assert page.read_record(slot) == b"bb"

    def test_replace_larger_relocates(self):
        page = make_page()
        slot = page.insert(b"aa")
        before_offset, __ = page.record_extent(slot)
        page.replace_record(slot, b"bbbbbbbbbb")
        after_offset, length = page.record_extent(slot)
        assert after_offset != before_offset
        assert page.read_record(slot) == b"bbbbbbbbbb"

    def test_live_slots(self):
        page = make_page()
        a = page.insert(b"a")
        b = page.insert(b"b")
        page.delete_record(a)
        assert list(page.live_slots()) == [b]

    def test_compact_reclaims_space(self):
        page = make_page(page_size=256, delta=0)
        slots = [page.insert(b"x" * 30) for __ in range(6)]
        for slot in slots[:3]:
            page.delete_record(slot)
        free_before = page.slot_table_floor - page.free_ptr
        page.compact()
        free_after = page.slot_table_floor - page.free_ptr
        assert free_after > free_before
        for slot in slots[3:]:
            assert page.read_record(slot) == b"x" * 30

    def test_restore_slot_resurrects(self):
        # Delete, then apply the inverse of the DELETE record.
        page = make_page()
        slot = page.insert(b"precious")
        delete = LogRecord(1, 1, LogKind.DELETE, 0, slot, page.record_extent(slot))
        apply_record(page, delete.kind, slot, delete.payload)
        with pytest.raises(RecordNotFoundError):
            page.read_record(slot)
        kind, payload = inverse_of(page, delete)
        apply_record(page, kind, slot, payload)
        assert page.read_record(slot) == b"precious"

    def test_redo_insert_deterministic(self):
        original = make_page()
        slot = original.insert(b"replayed")
        replica = make_page()
        replica.place_record(slot, b"replayed")
        assert bytes(replica.image) == bytes(original.image)


class TestTracking:
    def test_insert_tracks_changes(self):
        page = make_page()
        page.reset_tracking()
        page.insert(b"abc")
        assert page.tracked  # record bytes + slot entry + header fields

    def test_update_tracks_only_changed_bytes(self):
        page = make_page()
        slot = page.insert(b"\x00\x00\x00\x10")
        page.reset_tracking()
        page.update_record_bytes(slot, 0, b"\x00\x00\x00\x11")
        offset, __ = page.record_extent(slot)
        assert page.tracked == {offset + 3}

    def test_identical_write_tracks_nothing(self):
        page = make_page()
        slot = page.insert(b"same")
        page.reset_tracking()
        page.update_record_bytes(slot, 0, b"same")
        assert page.tracked == set()

    def test_lsn_tracking_only_low_bytes(self):
        """The paper's PageLSN point: only changed LSN bytes tracked."""
        page = make_page()
        page.set_lsn(0x1000)
        page.reset_tracking()
        page.set_lsn(0x1001)
        assert len(page.tracked) == 1

    def test_classify_body_vs_meta(self):
        page = make_page()
        slot = page.insert(b"\x00" * 8)
        page.reset_tracking()
        page.update_record_bytes(slot, 0, b"\x01" * 8)
        page.set_lsn(5)
        body, meta = page.classify_tracked()
        assert len(body) == 8
        assert len(meta) >= 1
        assert all(offset >= HEADER_SIZE for offset in body)

    def test_track_overflow_flag(self):
        page = SlottedPage.format(0, 8192, 0)
        assert page.TRACK_LIMIT == 4096  # class-attr default
        page.reset_tracking()
        page.write_bytes(HEADER_SIZE, bytes(range(256)) * 20)  # ~5120 changes
        assert page.track_overflowed

    def test_reset_tracking_clears_overflow(self):
        page = SlottedPage.format(0, 8192, 0)
        page.write_bytes(HEADER_SIZE, bytes(range(1, 256)) * 20)
        page.reset_tracking()
        assert not page.track_overflowed
        assert page.tracked == set()

    def test_stop_tracking(self):
        # Overflow is the one give-up state: writes still land, nothing
        # more is tracked until a flush resets tracking.
        page = make_page()
        page.track_overflowed = True
        slot = page.insert(b"untracked")
        assert page.read_record(slot) == b"untracked"
        assert page.tracked == set()

    def test_delta_area_reset_not_tracked(self):
        page = make_page()
        page.reset_tracking()
        page.reset_delta_area()
        assert page.tracked == set()


@settings(max_examples=50)
@given(st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=10))
def test_property_insert_read_roundtrip(records):
    page = SlottedPage.format(0, 2048, 64)
    slots = [page.insert(record) for record in records]
    for slot, record in zip(slots, records):
        assert page.read_record(slot) == record


@settings(max_examples=50)
@given(
    st.binary(min_size=8, max_size=32),
    st.binary(min_size=8, max_size=32),
)
def test_property_tracked_set_equals_byte_diff(old, new):
    """The tracker records exactly the offsets where bytes differ."""
    size = min(len(old), len(new))
    old, new = old[:size], new[:size]
    page = SlottedPage.format(0, 1024, 0)
    slot = page.insert(old)
    offset, __ = page.record_extent(slot)
    page.reset_tracking()
    page.update_record_bytes(slot, 0, new)
    expected = {offset + i for i in range(size) if old[i] != new[i]}
    assert page.tracked == expected
