"""Unit tests for Region allocation mechanics (stride, retire, accounting)."""

import pytest

from repro.errors import OutOfSpaceError, RegionError
from repro.flash import CellType, FlashGeometry
from repro.flash.geometry import PhysicalAddress
from repro.ftl import PageMapping
from repro.ftl.region import IPAMode, Region, RegionConfig


def make_region(ipa_mode=IPAMode.NATIVE, cell_type=CellType.SLC,
                blocks=None, pages_per_block=8, chips=2):
    geometry = FlashGeometry(
        chips=chips, blocks_per_chip=8, pages_per_block=pages_per_block,
        page_size=64, oob_size=8, cell_type=cell_type,
    )
    if blocks is None:
        blocks = [(c, b) for c in range(chips) for b in range(4)]
    config = RegionConfig("r", logical_pages=16, ipa_mode=ipa_mode)
    return Region(config, geometry, lpn_start=0, blocks=blocks)


class TestAllocation:
    def test_round_robin_across_chips(self):
        region = make_region()
        chips = [region.geometry.address(region.allocate()).chip for __ in range(4)]
        assert set(chips) == {0, 1}

    def test_sequential_pages_within_block(self):
        region = make_region(chips=1, blocks=[(0, 0)])
        pages = [region.geometry.address(region.allocate()).page for __ in range(8)]
        assert pages == list(range(8))

    def test_exhaustion_raises(self):
        region = make_region(chips=1, blocks=[(0, 0)])
        for __ in range(8):
            region.allocate()
        with pytest.raises(OutOfSpaceError):
            region.allocate()

    def test_erased_available_accounting(self):
        region = make_region(chips=1, blocks=[(0, 0), (0, 1)])
        assert region.erased_available == 16
        region.allocate()
        assert region.erased_available == 15

    def test_release_restores_availability(self):
        region = make_region(chips=1, blocks=[(0, 0)])
        for __ in range(8):
            region.allocate()
        region.release_block((0, 0))
        assert region.erased_available == 8

    def test_contains(self):
        region = make_region()
        assert region.contains(0) and region.contains(15)
        assert not region.contains(16)


class TestPSLCStride:
    def test_only_even_pages_allocated(self):
        region = make_region(ipa_mode=IPAMode.PSLC, cell_type=CellType.MLC,
                             chips=1, blocks=[(0, 0)])
        pages = [region.geometry.address(region.allocate()).page for __ in range(4)]
        assert pages == [0, 2, 4, 6]

    def test_usable_halved(self):
        region = make_region(ipa_mode=IPAMode.PSLC, cell_type=CellType.MLC)
        assert region.usable_pages_per_block == 4

    def test_availability_counts_usable_only(self):
        region = make_region(ipa_mode=IPAMode.PSLC, cell_type=CellType.MLC,
                             chips=1, blocks=[(0, 0)])
        assert region.erased_available == 4


class TestAppendPermission:
    def test_none_forbids(self):
        region = make_region(ipa_mode=IPAMode.NONE)
        assert not region.appends_allowed_at(region.geometry.ppn(PhysicalAddress(0, 0, 0)))

    def test_native_allows_everywhere(self):
        region = make_region(ipa_mode=IPAMode.NATIVE)
        assert region.appends_allowed_at(region.geometry.ppn(PhysicalAddress(0, 0, 3)))

    def test_odd_mlc_lsb_only(self):
        region = make_region(ipa_mode=IPAMode.ODD_MLC, cell_type=CellType.MLC)
        assert region.appends_allowed_at(region.geometry.ppn(PhysicalAddress(0, 0, 2)))
        assert not region.appends_allowed_at(region.geometry.ppn(PhysicalAddress(0, 0, 3)))


class TestRetireActive:
    def test_retire_picks_least_valid(self):
        geometry = FlashGeometry(chips=2, blocks_per_chip=8, pages_per_block=8,
                                 page_size=64, oob_size=8)
        mapping = PageMapping(geometry)
        region = make_region(chips=2, blocks=[(0, 0), (1, 0)])
        # open both chips' active blocks
        a = region.allocate()
        b = region.allocate()
        mapping.bind(0, a)
        mapping.bind(1, b)
        mapping.bind(2, region.allocate())  # second page on one chip
        assert len(region.active_block_keys()) == 2
        victim = region.retire_active(mapping)
        assert victim is not None
        assert mapping.valid_count(victim) == 1  # the less-valid block

    def test_retire_none_when_no_active(self):
        region = make_region(chips=1, blocks=[(0, 0)])
        geometry = region.geometry
        assert region.retire_active(PageMapping(geometry)) is None

    def test_retire_subtracts_tail(self):
        region = make_region(chips=1, blocks=[(0, 0)])
        mapping = PageMapping(region.geometry)
        mapping.bind(0, region.allocate())
        before = region.erased_available
        region.retire_active(mapping)
        assert region.erased_available == before - 7  # unconsumed tail


class TestValidation:
    def test_region_without_blocks_rejected(self):
        geometry = FlashGeometry(chips=1, blocks_per_chip=2, pages_per_block=4,
                                 page_size=64, oob_size=8)
        with pytest.raises(RegionError):
            Region(RegionConfig("r", 4), geometry, 0, [])
