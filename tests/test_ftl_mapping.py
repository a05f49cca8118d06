"""Unit tests for the page-level mapping table."""

import pytest

from repro.errors import MappingError
from repro.flash.geometry import FlashGeometry, PhysicalAddress
from repro.ftl import PageMapping


@pytest.fixture
def geometry():
    return FlashGeometry(chips=2, blocks_per_chip=4, pages_per_block=8, page_size=64, oob_size=8)


@pytest.fixture
def mapping(geometry):
    return PageMapping(geometry)


@pytest.fixture
def ppn(geometry):
    """``ppn(chip, block, page)``: the flat page number of an address."""
    return lambda *fields: geometry.ppn(PhysicalAddress(*fields))


class TestBindLookup:
    def test_lookup_unmapped_raises(self, mapping):
        with pytest.raises(MappingError):
            mapping.lookup(0)

    def test_bind_then_lookup(self, mapping, ppn):
        home = ppn(0, 1, 2)
        assert mapping.bind(7, home) is None
        assert mapping.lookup(7) == home
        assert 7 in mapping
        assert len(mapping) == 1

    def test_rebind_returns_stale_address(self, mapping, ppn):
        first = ppn(0, 0, 0)
        second = ppn(1, 2, 3)
        mapping.bind(7, first)
        assert mapping.bind(7, second) == first
        assert mapping.lookup(7) == second

    def test_reverse_lookup(self, mapping, ppn):
        home = ppn(1, 1, 1)
        mapping.bind(42, home)
        assert mapping.reverse(home) == 42
        assert mapping.reverse(ppn(0, 0, 0)) is None

    def test_reverse_of_stale_page_is_none(self, mapping, ppn):
        first = ppn(0, 0, 0)
        mapping.bind(1, first)
        mapping.bind(1, ppn(0, 0, 1))
        assert mapping.reverse(first) is None


class TestValidCounts:
    def test_counts_track_binds(self, mapping, ppn):
        mapping.bind(1, ppn(0, 2, 0))
        mapping.bind(2, ppn(0, 2, 1))
        assert mapping.valid_count((0, 2)) == 2

    def test_rebind_moves_count_between_blocks(self, mapping, ppn):
        mapping.bind(1, ppn(0, 2, 0))
        mapping.bind(1, ppn(0, 3, 0))
        assert mapping.valid_count((0, 2)) == 0
        assert mapping.valid_count((0, 3)) == 1

    def test_unbind_decrements(self, mapping, ppn):
        home = ppn(1, 0, 5)
        mapping.bind(9, home)
        assert mapping.unbind(9) == home
        assert mapping.valid_count((1, 0)) == 0
        assert 9 not in mapping

    def test_unbind_unmapped_is_noop(self, mapping):
        assert mapping.unbind(123) is None

    def test_valid_pages_in_block(self, mapping, ppn):
        mapping.bind(1, ppn(0, 2, 0))
        mapping.bind(2, ppn(0, 2, 5))
        mapping.bind(3, ppn(0, 3, 0))
        pages = mapping.valid_pages_in_block((0, 2))
        assert pages == [(1, ppn(0, 2, 0)), (2, ppn(0, 2, 5))]

    def test_block_emptied_requires_zero_valid(self, mapping, ppn):
        mapping.bind(1, ppn(0, 2, 0))
        with pytest.raises(MappingError):
            mapping.block_emptied((0, 2))
        mapping.unbind(1)
        mapping.block_emptied((0, 2))
