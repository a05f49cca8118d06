"""OOB commit marks: torn delta records are detected and discarded."""

import pytest

from repro.core import IPAManager, NxMScheme
from repro.core.delta import decode_area, encode_record
from repro.errors import IPAError
from repro.flash import FlashGeometry, FlashMemory
from repro.flash.ecc import CODE_SIZE, EccSegment, SegmentedEcc, compute_code
from repro.ftl import BlockSSD, IPAMode, single_region_device
from repro.storage import SlottedPage
from repro.storage.buffer import Frame


def make_device(page_size=512, oob_size=64, ipa_mode=IPAMode.NATIVE):
    geometry = FlashGeometry(
        chips=2, blocks_per_chip=16, pages_per_block=8, page_size=page_size,
        oob_size=oob_size,
    )
    return single_region_device(
        FlashMemory(geometry), logical_pages=64, ipa_mode=ipa_mode
    )


def make_frame(lpn, scheme, page_size=512):
    page = SlottedPage.format(lpn, page_size, scheme.area_size)
    return Frame(lpn, page)


def flushed_frame(manager, scheme):
    """A frame whose page is on flash with one marked delta append."""
    frame = make_frame(0, scheme)
    slot = frame.page.insert(b"\x00" * 8)
    manager.flush(frame)
    frame.page.update_record_bytes(slot, 0, b"\x11")
    kind, __ = manager.flush(frame)
    assert kind == "ipa"
    return frame, slot


class TestCommitMarks:
    def test_marks_written_at_oob_tail(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        flushed_frame(manager, scheme)
        oob = device.read_oob(0)
        assert oob[-scheme.n] != 0xFF  # slot 0 marked
        assert oob[-scheme.n + 1] == 0xFF  # slot 1 still uncommitted

    def test_marked_slots_decode_on_load(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame, slot = flushed_frame(manager, scheme)
        image, used, __ = manager.load(0)
        assert used == 1
        offset, __ = frame.page.record_extent(slot)
        assert image[offset] == 0x11

    def test_unmarked_torn_delta_is_discarded(self):
        """A crash between the delta program and its commit mark must
        make the append invisible — exactly what a direct device-level
        write_delta (no manager, no mark) simulates."""
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame, slot = flushed_frame(manager, scheme)
        committed, used, __ = manager.load(0)
        offset, __ = frame.page.record_extent(slot)
        torn = encode_record(scheme, [(offset, 0x22)], [])
        device.write_delta(0, scheme.slot_offset(1, 512), torn)
        image, used_after, __ = manager.load(0)
        assert used_after == used == 1
        assert bytes(image) == bytes(committed)
        assert image[offset] == 0x11  # torn 0x22 never surfaced

    def test_replay_after_torn_delta_lands_correctly(self):
        """Re-flushing the same logical change after a torn append must
        converge (the partially programmed slot forces an OOP fallback
        or a compatible re-program; either is correct)."""
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame, slot = flushed_frame(manager, scheme)
        offset, __ = frame.page.record_extent(slot)
        torn = encode_record(scheme, [(offset, 0x22)], [])
        device.write_delta(0, scheme.slot_offset(1, 512), torn)
        # The manager reloads and sees only one committed slot.
        __, frame.slots_used, __ = manager.load(0)
        frame.page.update_record_bytes(slot, 0, b"\x22")
        manager.flush(frame)
        image, __, __ = manager.load(0)
        assert image[offset] == 0x22

    def test_oop_flush_resets_marks_with_fresh_home(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame, slot = flushed_frame(manager, scheme)
        frame.page.update_record_bytes(slot, 0, b"\xaa" * 8)  # big change
        frame.page.track_overflowed = True  # the one give-up state
        assert manager.flush(frame)[0] == "oop"
        assert not frame.page.track_overflowed
        oob = device.read_oob(0)
        assert all(b == 0xFF for b in oob[-scheme.n:])
        __, used, __ = manager.load(0)
        assert used == 0

    def test_oob_too_small_for_marks_raises(self):
        device = make_device(oob_size=1)
        with pytest.raises(IPAError):
            IPAManager(device, NxMScheme(2, 4))

    def test_oob_too_small_for_marks_plus_ecc_raises(self):
        device = make_device(oob_size=12)
        # 2 marks fit, but CODE_SIZE * (1 + 2) + 2 = 14 > 12 with ECC.
        IPAManager(device, NxMScheme(2, 4))
        with pytest.raises(IPAError):
            IPAManager(device, NxMScheme(2, 4), ecc_enabled=True)


class TestRmwAbsorptionSurvival:
    def test_marks_rewritten_after_silent_rmw(self):
        """The black-box device may relocate the page (fresh, erased
        OOB) while absorbing a delta; the manager re-programs every
        mark afterwards, so committed appends stay committed."""
        from repro.flash.constants import CellType

        device = BlockSSD(
            FlashMemory(FlashGeometry(
                chips=2, blocks_per_chip=6, pages_per_block=8, page_size=512,
                cell_type=CellType.MLC,
            )),
            capacity_pages=32, ipa_mode=IPAMode.ODD_MLC,
        )
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame = make_frame(0, scheme)
        slot = frame.page.insert(b"\x00" * 8)
        manager.flush(frame)
        values = (0x21, 0x42)
        for value in values:
            frame.page.update_record_bytes(slot, 0, bytes([value]))
            manager.flush(frame)
        image, __, __ = manager.load(0)
        offset, __ = frame.page.record_extent(slot)
        assert image[offset] == values[-1]


class TestDecodeAreaMaxSlots:
    def test_gap_slot_inside_marked_range_is_skipped(self):
        scheme = NxMScheme(2, 4)
        page_size = 256
        image = bytearray(b"\x00" * page_size)
        area = scheme.area_offset(page_size)
        image[area:] = b"\xff" * scheme.area_size
        record = encode_record(scheme, [(3, 0x77)], [])
        start = scheme.slot_offset(1, page_size)
        image[start : start + len(record)] = record
        pairs, used = decode_area(scheme, bytes(image), page_size, max_slots=2)
        assert used == 2
        assert pairs == [(3, 0x77)]

    def test_slots_beyond_mark_count_are_ignored(self):
        scheme = NxMScheme(2, 4)
        page_size = 256
        image = bytearray(b"\x00" * page_size)
        area = scheme.area_offset(page_size)
        image[area:] = b"\xff" * scheme.area_size
        record = encode_record(scheme, [(3, 0x77)], [])
        start = scheme.slot_offset(0, page_size)
        image[start : start + len(record)] = record
        pairs, used = decode_area(scheme, bytes(image), page_size, max_slots=0)
        assert used == 0 and pairs == []

    def test_legacy_contract_unchanged_without_max_slots(self):
        scheme = NxMScheme(2, 4)
        page_size = 256
        image = bytearray(b"\x00" * page_size)
        area = scheme.area_offset(page_size)
        image[area:] = b"\xff" * scheme.area_size
        record = encode_record(scheme, [(3, 0x77)], [])
        start = scheme.slot_offset(0, page_size)
        image[start : start + len(record)] = record
        pairs, used = decode_area(scheme, bytes(image), page_size)
        assert used == 1 and pairs == [(3, 0x77)]


class TestEccErasedCodeSkip:
    def test_erased_segment_code_is_skipped(self):
        ecc = SegmentedEcc([EccSegment(0, 16), EccSegment(16, 16)], oob_size=64)
        data = bytearray(b"\x5a" * 32)
        oob = bytearray(b"\xff" * 64)
        code = compute_code(bytes(data[:16]))
        oob[:CODE_SIZE] = code  # segment 0 finalized, segment 1 never coded
        corrected = ecc.verify(data, bytes(oob), 2)
        assert corrected == 0

    def test_programmed_code_still_corrects(self):
        ecc = SegmentedEcc([EccSegment(0, 16)], oob_size=64)
        data = bytearray(b"\x5a" * 16)
        oob = bytearray(b"\xff" * 64)
        oob[:CODE_SIZE] = compute_code(bytes(data))
        data[3] ^= 0x10  # single-bit flip
        corrected = ecc.verify(data, bytes(oob), 1)
        assert corrected == 1
        assert data == bytearray(b"\x5a" * 16)


class TestCrashWindowAccounting:
    """Regression: frame accounting must move only after the commit mark.

    ``_flush_ipa`` once bumped ``frame.slots_used`` between the delta
    program and the OOB mark program — inside the crash window.  A
    crash there left the in-memory frame claiming one more committed
    slot than recovery would ever see (the flow linter's crash-window
    rule now catches this statically; this test pins it dynamically).
    """

    def test_crash_before_mark_leaves_frame_accounting_unchanged(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame, slot = flushed_frame(manager, scheme)
        assert frame.slots_used == 1
        frame.page.update_record_bytes(slot, 0, b"\x22")

        original_write_oob = device.write_oob

        def power_cut(*args, **kwargs):
            raise RuntimeError("power cut before commit mark")

        device.write_oob = power_cut
        try:
            with pytest.raises(RuntimeError):
                manager.flush(frame)
        finally:
            device.write_oob = original_write_oob

        # In-memory accounting agrees with durable state: recovery
        # sees one marked slot, and so does the frame.
        assert frame.slots_used == 1
        __, used, __ = manager.load(0)
        assert used == 1

    def test_successful_flush_still_advances_accounting(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame, slot = flushed_frame(manager, scheme)
        frame.page.update_record_bytes(slot, 0, b"\x22")
        kind, __ = manager.flush(frame)
        assert kind == "ipa"
        assert frame.slots_used == 2
        __, used, __ = manager.load(0)
        assert used == 2
