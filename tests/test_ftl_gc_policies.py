"""Tests for GC victim policies, wear leveling, and OOB migration."""

import random

import pytest

from repro.flash import FlashGeometry, FlashMemory
from repro.flash.geometry import PhysicalAddress
from repro.ftl import PageMapping, cost_benefit, fifo, get_policy, greedy
from repro.ftl.gc import wear_aware
from repro.ftl.noftl import single_region_device
from repro.ftl.region import IPAMode


GEOMETRY = FlashGeometry(chips=1, blocks_per_chip=8, pages_per_block=4,
                         page_size=64, oob_size=8)


def ppn(chip, block, page):
    return GEOMETRY.ppn(PhysicalAddress(chip, block, page))


@pytest.fixture
def mapping():
    m = PageMapping(GEOMETRY)
    # block 0: 3 valid, block 1: 1 valid, block 2: 0 valid
    for i in range(3):
        m.bind(i, ppn(0, 0, i))
    m.bind(10, ppn(0, 1, 0))
    return m


CANDIDATES = [(0, 0), (0, 1), (0, 2)]


class TestPolicies:
    def test_greedy_prefers_fewest_valid(self, mapping):
        assert greedy(CANDIDATES, mapping, {}) == (0, 2)

    def test_greedy_ties_broken_by_wear(self, mapping):
        mapping.unbind(10)  # blocks 1 and 2 both have 0 valid
        erases = {(0, 1): 5, (0, 2): 1}
        assert greedy(CANDIDATES, mapping, erases) == (0, 2)

    def test_greedy_empty(self, mapping):
        assert greedy([], mapping, {}) is None

    def test_fifo_takes_first(self, mapping):
        assert fifo(CANDIDATES, mapping, {}) == (0, 0)
        assert fifo([], mapping, {}) is None

    def test_cost_benefit_skips_full_blocks(self, mapping):
        # Block 3: completely valid — reclaiming it gains nothing.
        for i in range(4):
            mapping.bind(20 + i, ppn(0, 3, i))
        choice = cost_benefit([(0, 3), (0, 1)], mapping, {})
        assert choice == (0, 1)

    def test_cost_benefit_all_full_returns_none(self, mapping):
        for i in range(4):
            mapping.bind(20 + i, ppn(0, 3, i))
        assert cost_benefit([(0, 3)], mapping, {}) is None

    def test_cost_benefit_on_128_page_blocks(self):
        """Utilization is valid pages over the *geometry's* pages per
        block.  Against a hard-coded 64, every block holding >= 64 valid
        pages looked full and was skipped, and GC livelocked
        (``OutOfSpaceError: region 'default': GC livelock``)."""

        geometry = FlashGeometry(chips=2, blocks_per_chip=8,
                                 pages_per_block=128, page_size=64, oob_size=8)
        device = single_region_device(
            FlashMemory(geometry), logical_pages=1536,  # 75% of the array
            ipa_mode=IPAMode.NATIVE, victim_policy=cost_benefit,
        )
        image = bytes(64)
        for lpn in range(1536):
            device.write(lpn, image)
        rng = random.Random(7)
        for _ in range(3000):
            device.write(rng.randrange(1536), image)
        assert device.snapshot()["gc_erases"] > 0

    def test_get_policy(self):
        assert get_policy("greedy") is greedy
        with pytest.raises(KeyError):
            get_policy("nope")


class TestWearAware:
    def test_defers_to_base_when_even(self, mapping):
        policy = wear_aware(greedy, spread_threshold=50)
        erases = {key: 10 for key in CANDIDATES}
        assert policy(CANDIDATES, mapping, erases) == greedy(CANDIDATES, mapping, erases)

    def test_picks_coldest_when_spread_exceeds(self, mapping):
        policy = wear_aware(greedy, spread_threshold=50)
        erases = {(0, 0): 100, (0, 1): 90, (0, 2): 10}
        # greedy would pick (0,2) anyway (0 valid); make the coldest a
        # different block to see the override:
        erases = {(0, 0): 5, (0, 1): 90, (0, 2): 100}
        assert policy(CANDIDATES, mapping, erases) == (0, 0)

    def test_registered_in_policy_table(self):
        assert callable(get_policy("wear-aware"))

    def test_wear_aware_narrows_spread_end_to_end(self):
        def run(policy_name):
            geometry = FlashGeometry(chips=1, blocks_per_chip=10,
                                     pages_per_block=8, page_size=128, oob_size=16)
            device = single_region_device(
                FlashMemory(geometry), logical_pages=40,
                ipa_mode=IPAMode.NATIVE,
            )
            device.victim_policy = (
                wear_aware(greedy, spread_threshold=4)
                if policy_name == "wear" else greedy
            )
            image = b"\x00" * 96 + b"\xff" * 32
            for lpn in range(40):
                device.write(lpn, image)
            # skew: rewrite only a handful of hot pages, many times
            for round_number in range(200):
                device.write(round_number % 5, image)
            wear = device.flash.wear_summary()
            return wear["max"] - wear["min"]

        assert run("wear") <= run("greedy")


class TestOOBMigration:
    def test_gc_carries_oob_with_the_page(self):
        geometry = FlashGeometry(chips=1, blocks_per_chip=8, pages_per_block=8,
                                 page_size=128, oob_size=16)
        device = single_region_device(
            FlashMemory(geometry), logical_pages=16, ipa_mode=IPAMode.NATIVE,
        )
        image = b"\x11" * 96 + b"\xff" * 32
        device.write(0, image)
        device.write_oob(0, b"\xAB\xCD")
        # churn others until page 0 migrates
        home = device.physical_address(0)
        round_number = 0
        while device.physical_address(0) == home and round_number < 500:
            device.write(1 + round_number % 15, image)
            round_number += 1
        assert device.physical_address(0) != home, "page 0 never migrated"
        assert device.read_oob(0)[:2] == b"\xAB\xCD"
