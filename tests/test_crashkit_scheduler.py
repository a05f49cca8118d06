"""Unit tests for the crash scheduler and the torn flash primitives."""

import random

import pytest

from repro.crashkit import CrashPoint, CrashScheduler
from repro.errors import PowerFailureError, ProgramError, ReproError
from repro.flash import FlashGeometry, FlashMemory, PhysicalAddress
from repro.flash.page import FlashPage
from repro.flash.timing import LatencyModel


def make_memory(**overrides):
    geometry = FlashGeometry(
        chips=2, blocks_per_chip=8, pages_per_block=8, page_size=512,
        oob_size=64, **overrides,
    )
    return FlashMemory(geometry)


class TestCrashPoint:
    def test_empty_sites_matches_everything(self):
        point = CrashPoint(at_op=1)
        assert point.matches("flash.program")
        assert point.matches("recovery.undo")

    def test_prefix_matching(self):
        point = CrashPoint(at_op=1, sites=("flash.program",))
        assert point.matches("flash.program")
        assert point.matches("flash.program_oob")
        assert not point.matches("flash.erase")

    def test_scoped_site_matches_unscoped_prefix(self):
        point = CrashPoint(at_op=1, sites=("flash.program",))
        assert point.matches("shard2/flash.program")

    def test_scoped_prefix_only_matches_that_shard(self):
        point = CrashPoint(at_op=1, sites=("shard1/",))
        assert point.matches("shard1/flash.program")
        assert not point.matches("shard0/flash.program")

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, 2.0])
    def test_torn_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ReproError, match="fraction"):
            CrashPoint(at_op=1, fraction=fraction)

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_torn_fraction_bounds_accepted(self, fraction):
        assert CrashPoint(at_op=1, fraction=fraction).fraction == fraction


class TestCrashScheduler:
    def test_fires_on_nth_matching_tick(self):
        sched = CrashScheduler([CrashPoint(at_op=3, sites=("flash.program",))])
        sched.site("flash.program")
        sched.site("flash.erase")  # non-matching: does not advance the match count
        sched.site("flash.program")
        with pytest.raises(PowerFailureError) as err:
            sched.site("flash.program")
        assert err.value.site == "flash.program"
        assert len(sched.fired) == 1
        assert sched.total_ops == 4

    def test_points_fire_in_sequence(self):
        sched = CrashScheduler([
            CrashPoint(at_op=1, sites=("flash.program",)),
            CrashPoint(at_op=1, sites=("recovery.undo",)),
        ])
        sched.site("recovery.undo")  # second point not active yet
        with pytest.raises(PowerFailureError):
            sched.site("flash.program")
        with pytest.raises(PowerFailureError):
            sched.site("recovery.undo")
        assert [fired.site for fired in sched.fired] == [
            "flash.program", "recovery.undo",
        ]

    def test_probabilistic_point(self):
        sched = CrashScheduler([CrashPoint(probability=1.0)])
        with pytest.raises(PowerFailureError):
            sched.site("anything")

    def test_disarmed_scheduler_only_counts(self):
        sched = CrashScheduler([CrashPoint(at_op=1)])
        sched.disarm()
        for _ in range(5):
            sched.site("flash.program")
        assert sched.total_ops == 5
        assert sched.fired == []
        sched.arm()
        with pytest.raises(PowerFailureError):
            sched.site("flash.program")

    def test_scoped_view_shares_the_global_counter(self):
        sched = CrashScheduler([CrashPoint(at_op=3)])
        shard0, shard1 = sched.scoped("shard0"), sched.scoped("shard1")
        shard0.site("flash.program")
        shard1.site("flash.program")
        with pytest.raises(PowerFailureError) as err:
            shard0.site("noftl.map_update")
        assert err.value.site == "shard0/noftl.map_update"
        assert sched.total_ops == 3

    def test_telemetry_counters(self):
        sched = CrashScheduler([CrashPoint(at_op=2)])
        sched.site("a")
        with pytest.raises(PowerFailureError):
            sched.site("b")
        assert sched.total_ops == 2
        assert [(crash.site, crash.op_index) for crash in sched.fired] == [("b", 2)]


class TestTornPagePrimitives:
    def test_no_pulse_lands_leaves_page_unchanged(self):
        page = FlashPage(64, 16)
        page.program(b"\xf0" * 64)
        changed = page.program_torn(b"\x00" * 64, 0, lambda: False)
        assert not changed
        assert page.read() == b"\xf0" * 64

    def test_all_pulses_land_equals_full_program(self):
        page = FlashPage(64, 16)
        changed = page.program_torn(b"\x81" * 64, 0, lambda: True)
        assert changed
        assert page.read() == b"\x81" * 64

    def test_partial_pulses_obey_ispp(self):
        page = FlashPage(64, 16)
        rng = random.Random(11)
        page.program_torn(b"\x2a" * 64, 0, lambda: rng.random() < 0.5)
        for value in page.read():
            # Torn state sits between erased and target: every cleared
            # bit is one the target clears (no spurious 1 -> 0), and no
            # target-1 bit was touched.
            assert value & 0x2A == 0x2A
            assert value | 0x2A == value | 0x2A & 0xFF
            assert (~value & 0xFF) & ~(~0x2A & 0xFF) == 0

    def test_illegal_transition_raises_before_mutation(self):
        page = FlashPage(64, 16)
        page.program(b"\x00" * 64)
        with pytest.raises(ProgramError):
            page.program_torn(b"\x01" * 64, 0, lambda: True)
        assert page.read() == b"\x00" * 64

    def test_torn_oob_program(self):
        page = FlashPage(64, 16)
        changed = page.program_oob_torn(b"\xa5\xa5", 0, lambda: True)
        assert changed
        assert page.read_oob()[:2] == b"\xa5\xa5"

    def test_torn_erase_keeps_erase_count(self):
        memory = make_memory()
        address = memory.geometry.ppn(PhysicalAddress(0, 0, 0))
        memory.program(address, b"\xab" * 512)
        block = memory.chips[0].blocks[0]
        before = block.erase_count
        rng = random.Random(3)
        block.erase_torn(lambda: rng.random() < 0.5)
        assert block.erase_count == before


class TestMemoryInjection:
    def test_torn_program_then_failure(self):
        memory = make_memory()
        sched = CrashScheduler(
            [CrashPoint(at_op=1, sites=("flash.program",), fraction=0.5)], seed=5
        )
        memory.crashkit = sched
        address = memory.geometry.ppn(PhysicalAddress(0, 0, 0))
        with pytest.raises(PowerFailureError):
            memory.program(address, b"\x00" * 512)
        torn = memory.page_at(address).read()
        assert torn != b"\xff" * 512  # some pulses landed
        assert torn != b"\x00" * 512  # but not all of them
        assert memory.stats.busy_time_us > 0.0

    def test_partial_latency_is_a_fraction_of_full(self):
        full = make_memory()
        address = full.geometry.ppn(PhysicalAddress(0, 0, 0))
        full.program(address, b"\x00" * 512)
        full_busy = full.stats.busy_time_us

        torn = make_memory()
        sched = CrashScheduler(
            [CrashPoint(at_op=1, sites=("flash.program",), fraction=0.25)]
        )
        torn.crashkit = sched
        with pytest.raises(PowerFailureError):
            torn.program(address, b"\x00" * 512)
        assert 0.0 < torn.stats.busy_time_us < full_busy

    def test_torn_erase_failure(self):
        memory = make_memory()
        address = memory.geometry.ppn(PhysicalAddress(0, 0, 0))
        memory.program(address, b"\x00" * 512)
        sched = CrashScheduler(
            [CrashPoint(at_op=1, sites=("flash.erase",), fraction=1.0)]
        )
        memory.crashkit = sched
        with pytest.raises(PowerFailureError):
            memory.erase(0, 0)
        block = memory.chips[0].blocks[0]
        assert block.erase_count == 0  # interrupted erase never counts

    def test_interrupted_latency_clamps(self):
        model = LatencyModel()
        assert model.interrupted(100.0, 0.5) == 50.0
        assert model.interrupted(100.0, -1.0) == 0.0
        assert model.interrupted(100.0, 7.0) == 100.0
