"""Unit tests for the IPAManager flush/load policy (paper Section 6.2)."""

import itertools

import pytest

from repro.core import IPAManager, NxMScheme, SCHEME_OFF
from repro.core.manager import full_metadata_record_size
from repro.errors import IPAError
from repro.flash import FlashGeometry, FlashMemory
from repro.ftl import IPAMode, single_region_device
from repro.storage import SlottedPage
from repro.storage.buffer import Frame


def make_device(page_size=512, ipa_mode=IPAMode.NATIVE):
    geometry = FlashGeometry(
        chips=2, blocks_per_chip=16, pages_per_block=8, page_size=page_size,
        oob_size=64,
    )
    return single_region_device(
        FlashMemory(geometry), logical_pages=64, ipa_mode=ipa_mode
    )


def make_frame(lpn, scheme, page_size=512):
    page = SlottedPage.format(lpn, page_size, scheme.area_size)
    return Frame(lpn, page)


class TestFlushDecision:
    def test_first_flush_is_oop_marked_new(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        events = []
        manager = IPAManager(device, scheme,
                             flush_observer=lambda *a: events.append(a))
        frame = make_frame(0, scheme)
        frame.page.insert(b"record")
        kind, __ = manager.flush(frame)
        assert kind == "oop"
        assert events[-1][1] == "new"
        assert device.is_mapped(0)

    def test_small_update_appends(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame = make_frame(0, scheme)
        slot = frame.page.insert(b"\x00\x00\x00\x00")
        manager.flush(frame)
        frame.page.update_record_bytes(slot, 3, b"\x07")
        kind, __ = manager.flush(frame)
        assert kind == "ipa"
        assert frame.slots_used == 1
        assert manager.stats.delta_records_written == 1

    def test_clean_page_flush_skips(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame = make_frame(0, scheme)
        frame.page.insert(b"abc")
        manager.flush(frame)
        kind, latency = manager.flush(frame)
        assert kind == "skip"
        assert latency == 0.0
        assert manager.stats.skipped_flushes == 1

    def test_budget_overflow_goes_oop(self):
        device = make_device()
        scheme = NxMScheme(1, 2)
        manager = IPAManager(device, scheme)
        frame = make_frame(0, scheme)
        slot = frame.page.insert(b"\x00" * 16)
        manager.flush(frame)
        frame.page.update_record_bytes(slot, 0, b"\x01" * 16)
        kind, __ = manager.flush(frame)
        assert kind == "oop"
        assert manager.stats.budget_overflows == 1
        assert frame.slots_used == 0

    def test_track_overflow_goes_oop(self):
        device = make_device(page_size=8192)
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame = make_frame(0, scheme, page_size=8192)
        slot = frame.page.insert(bytes(6000))
        manager.flush(frame)
        frame.page.update_record_bytes(slot, 0, bytes(range(256)) * 23)
        assert frame.page.track_overflowed
        kind, __ = manager.flush(frame)
        assert kind == "oop"

    def test_scheme_off_always_oop(self):
        device = make_device()
        manager = IPAManager(device, SCHEME_OFF)
        frame = make_frame(0, SCHEME_OFF)
        slot = frame.page.insert(b"\x00\x00")
        manager.flush(frame)
        frame.page.update_record_bytes(slot, 0, b"\x01\x01")
        kind, __ = manager.flush(frame)
        assert kind == "oop"
        assert manager.stats.ipa_flushes == 0

    def test_nth_plus_one_append_falls_back(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame = make_frame(0, scheme)
        slot = frame.page.insert(b"\x00" * 8)
        manager.flush(frame)
        kinds = []
        for i in range(3):
            frame.page.update_record_bytes(slot, i, bytes([i + 1]))
            kinds.append(manager.flush(frame)[0])
        assert kinds == ["ipa", "ipa", "oop"]
        assert frame.slots_used == 0  # reset by the out-of-place write

    def test_device_fallback_odd_mlc(self):
        from repro.flash.constants import CellType

        geometry = FlashGeometry(
            chips=1, blocks_per_chip=16, pages_per_block=8, page_size=512,
            oob_size=64, cell_type=CellType.MLC,
        )
        device = single_region_device(
            FlashMemory(geometry), logical_pages=32, ipa_mode=IPAMode.ODD_MLC
        )
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frames = [make_frame(lpn, scheme) for lpn in range(4)]
        slots = []
        for frame in frames:
            slots.append(frame.page.insert(b"\x00" * 4))
            manager.flush(frame)
        kinds = []
        for frame, slot in zip(frames, slots):
            frame.page.update_record_bytes(slot, 0, b"\x09")
            kinds.append(manager.flush(frame)[0])
        assert "ipa" in kinds and "oop" in kinds  # LSB vs MSB residents
        assert manager.stats.device_fallbacks >= 1


class _ClassifyPage:
    """Exactly what ``_classify`` may ask of a page — ``__slots__`` turns
    a read of any further flag into an ``AttributeError``."""

    __slots__ = ("tracked", "track_overflowed", "delta_area_size")

    def __init__(self, tracked, overflowed, delta_area_size):
        self.tracked = tracked
        self.track_overflowed = overflowed
        self.delta_area_size = delta_area_size

    def classify_tracked(self):
        return sorted(self.tracked), []


class _ClassifyFrame:
    __slots__ = ("lpn", "page", "slots_used")

    def __init__(self, page):
        self.lpn = 0
        self.page = page
        self.slots_used = 0


class _ClassifyDevice:
    oob_size = 64

    def __init__(self, mapped):
        self.mapped = mapped

    def is_mapped(self, lpn):
        return self.mapped


@pytest.mark.parametrize(
    "mapped, tracked, overflowed, scheme_on, area_matches",
    list(itertools.product([False, True], repeat=5)),
)
def test_classify_truth_table(mapped, tracked, overflowed, scheme_on, area_matches):
    """Skip reads {mapped, tracked, overflowed}; eligibility reads three
    inputs — mapped, a delta area matching an enabled scheme, and the one
    give-up state.  The stand-ins carry nothing else, so a fourth
    eligibility input fails here before it reaches a flush."""
    scheme = NxMScheme(2, 4) if scheme_on else SCHEME_OFF
    area = scheme.area_size if area_matches else scheme.area_size + 13
    page = _ClassifyPage({40} if tracked else set(), overflowed, area)
    manager = IPAManager(_ClassifyDevice(mapped), scheme)
    if mapped and not tracked and not overflowed:
        expected = "skip"
    elif mapped and scheme_on and area_matches and not overflowed:
        expected = "ipa"
    else:
        expected = "oop"
    assert manager.plan_flush(_ClassifyFrame(page)) == expected


class TestLoad:
    def test_load_applies_deltas_and_resets_area(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme)
        frame = make_frame(0, scheme)
        slot = frame.page.insert(b"\x11\x22\x33\x44")
        manager.flush(frame)
        frame.page.update_record_bytes(slot, 1, b"\xAB")
        manager.flush(frame)

        image, slots_used, latency = manager.load(0)
        page = SlottedPage(image)
        assert page.read_record(slot) == b"\x11\xAB\x33\x44"
        assert slots_used == 1
        area = scheme.area_offset(len(image))
        assert bytes(image[area:]) == b"\xff" * scheme.area_size
        assert latency > 0

    def test_load_roundtrip_many_appends(self):
        device = make_device()
        scheme = NxMScheme(3, 4)
        manager = IPAManager(device, scheme)
        frame = make_frame(0, scheme)
        slot = frame.page.insert(b"\x00" * 8)
        manager.flush(frame)
        for i in range(3):
            frame.page.update_record_bytes(slot, i, bytes([0x10 + i]))
            assert manager.flush(frame)[0] == "ipa"
        expected = bytes(frame.page.read_record(slot))
        image, slots_used, __ = manager.load(0)
        assert SlottedPage(image).read_record(slot) == expected
        assert slots_used == 3

    def test_checksum_roundtrip(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme, page_checksum=True)
        frame = make_frame(0, scheme)
        slot = frame.page.insert(b"\x00" * 4)
        manager.flush(frame)
        frame.page.update_record_bytes(slot, 0, b"\x05")
        kind, __ = manager.flush(frame)
        assert kind == "ipa"  # checksum bytes fit into the V budget
        image, __, __ = manager.load(0)
        assert SlottedPage(image).verify_checksum()

    def test_ecc_detects_and_corrects_on_load(self):
        device = make_device()
        scheme = NxMScheme(2, 4)
        manager = IPAManager(device, scheme, ecc_enabled=True)
        frame = make_frame(0, scheme)
        frame.page.insert(b"\x42" * 8)
        manager.flush(frame)
        # Flip one stored bit behind the manager's back.
        address = device.physical_address(0)
        device.flash.page_at(device.flash.geometry.ppn(address)).data[40] ^= 0x01
        image, __, __ = manager.load(0)
        assert manager.stats.ecc_corrected_bits == 1
        assert SlottedPage(image).read_record(0) == b"\x42" * 8


class TestHelpers:
    def test_check_page_compatible(self):
        device = make_device()
        manager = IPAManager(device, NxMScheme(2, 4))
        manager.check_page_compatible(NxMScheme(2, 4).area_size)
        with pytest.raises(IPAError):
            manager.check_page_compatible(0)

    def test_full_metadata_record_size(self):
        scheme = NxMScheme(2, 3)
        size = full_metadata_record_size(scheme, slot_count=40)
        assert size == 1 + 9 + 32 + 160
        assert size > scheme.record_size
