"""Tests for the sharded multi-controller device (LPN striping)."""

import pytest

from repro.errors import FTLError
from repro.flash import CellType, FlashGeometry, FlashMemory
from repro.ftl import BlockSSD, IPAMode, ShardedDevice, single_region_device
from repro.ftl.device import DERIVED_SNAPSHOT_KEYS, iter_shard_views, merge_snapshots
from repro.telemetry import HostIOEvent, Telemetry

PAGE_SIZE = 256
TAIL = 64


def make_child(logical_pages=12, chips=1, blocks_per_chip=8, ipa=True):
    geometry = FlashGeometry(
        chips=chips, blocks_per_chip=blocks_per_chip, pages_per_block=8,
        page_size=PAGE_SIZE, oob_size=32, cell_type=CellType.SLC,
    )
    return single_region_device(
        FlashMemory(geometry),
        logical_pages=logical_pages,
        ipa_mode=IPAMode.NATIVE if ipa else IPAMode.NONE,
    )


def make_device(shards=4, telemetry=None, **kwargs):
    device = ShardedDevice([make_child(**kwargs) for _ in range(shards)])
    if telemetry is not None:
        telemetry.attach_device(device)
    return device


def image(fill=0x21):
    return bytes([fill]) * (PAGE_SIZE - TAIL) + b"\xff" * TAIL


class TestRouting:
    def test_round_robin_striping(self):
        device = make_device(shards=4)
        assert device.shard_count == 4
        assert device.logical_pages == 48
        for lpn in range(48):
            shard, local = device.shard_of(lpn)
            assert shard == lpn % 4
            assert local == lpn // 4
            assert local * 4 + shard == lpn  # the documented inverse

    def test_commands_land_on_owning_shard(self):
        device = make_device(shards=4)
        device.write(6, image())  # shard 2, local page 1
        assert device.shards[2].is_mapped(1)
        assert not any(
            shard.is_mapped(1) for i, shard in enumerate(device.shards) if i != 2
        )
        assert device.is_mapped(6)
        assert device.read(6).data == image()
        device.trim(6)
        assert not device.shards[2].is_mapped(1)

    def test_sequential_writes_spread_across_all_shards(self):
        device = make_device(shards=4)
        for lpn in range(8):
            device.write(lpn, image())
        assert all(shard.stats.host_page_writes == 2 for shard in device.shards)

    def test_out_of_range_raises(self):
        device = make_device(shards=2, logical_pages=4)
        with pytest.raises(FTLError):
            device.read(8)
        with pytest.raises(FTLError):
            device.shard_of(-1)

    def test_delta_append_routed(self):
        device = make_device(shards=2)
        device.write(3, image())  # shard 1, local 1
        offset = PAGE_SIZE - TAIL
        assert device.can_write_delta(3, offset, 2)
        device.write_delta(3, offset, b"\x07\x08")
        assert device.shards[1].stats.delta_writes == 1
        assert device.read(3).data[offset:offset + 2] == b"\x07\x08"


class TestConstruction:
    def test_rejects_empty_shard_list(self):
        with pytest.raises(FTLError):
            ShardedDevice([])

    def test_rejects_mismatched_capacity(self):
        with pytest.raises(FTLError):
            ShardedDevice([make_child(logical_pages=12), make_child(logical_pages=8)])

    def test_rejects_mismatched_region_layout(self):
        with pytest.raises(FTLError):
            ShardedDevice([make_child(ipa=True), make_child(ipa=False)])

    def test_single_shard_is_a_plain_device(self):
        device = make_device(shards=1)
        device.write(5, image())
        assert device.shards[0].is_mapped(5)
        assert device.logical_pages == 12


class TestMergedRegions:
    def test_regions_stack_k_fold(self):
        device = make_device(shards=3)
        (region,) = device.regions
        assert region.lpn_start == 0
        assert region.lpn_end == 36
        assert region.config.logical_pages == 36
        assert region.ipa_mode is IPAMode.NATIVE
        assert device.region_of(35) is region
        assert device.region_named("default") is region


class TestMergedReporting:
    def test_snapshot_sums_raw_counters(self):
        device = make_device(shards=2)
        for lpn in range(4):
            device.write(lpn, image())
        device.write_delta(0, PAGE_SIZE - TAIL, b"\x01")
        device.read(1)
        snap = device.snapshot()
        assert snap["host_page_writes"] == 4
        assert snap["delta_writes"] == 1
        assert snap["host_writes"] == 5
        assert snap["host_reads"] == 1
        per_shard = device.shard_snapshots()
        assert len(per_shard) == 2
        assert sum(s["host_page_writes"] for s in per_shard) == 4

    def test_derived_keys_recomputed_not_summed(self):
        device = make_device(shards=2)
        for lpn in range(4):
            device.write(lpn, image())
        device.write_delta(0, PAGE_SIZE - TAIL, b"\x01")
        snap = device.snapshot()
        assert snap["ipa_fraction"] == pytest.approx(1 / 5)
        assert snap["mean_write_latency_us"] == pytest.approx(
            snap["write_latency_us_total"] / snap["host_writes"]
        )

    def test_merge_snapshots_matches_manual_merge(self):
        device = make_device(shards=3)
        for lpn in range(9):
            device.write(lpn, image())
        merged = merge_snapshots(device.shard_snapshots())
        assert merged == device.snapshot()
        for key in DERIVED_SNAPSHOT_KEYS:
            assert key in merged

    def test_stats_facade_and_reset(self):
        device = make_device(shards=2)
        device.write(0, image())
        device.write(1, image())
        assert device.stats.host_page_writes == 2
        assert device.stats.host_writes == 2
        with pytest.raises(AttributeError):
            _ = device.stats.no_such_counter
        device.reset_stats()
        assert device.stats.host_page_writes == 0
        assert device.snapshot()["host_writes"] == 0

    @pytest.mark.parametrize("kind", ["noftl", "blockssd"])
    def test_stats_attributes_read_the_merged_snapshot(self, kind):
        """Every snapshot key read as an attribute equals the merged
        snapshot's value exactly (same sums, same shard order)."""
        if kind == "noftl":
            device = make_device(shards=4, logical_pages=16, blocks_per_chip=6)
        else:
            geometry = FlashGeometry(
                chips=1, blocks_per_chip=6, pages_per_block=8,
                page_size=PAGE_SIZE, oob_size=32, cell_type=CellType.SLC,
            )
            device = ShardedDevice(
                [BlockSSD(FlashMemory(geometry), capacity_pages=16) for _ in range(4)]
            )
        offset = PAGE_SIZE - TAIL
        for round_number in range(10):  # enough rewrites to force GC
            for lpn in range(0, 64, 1 + round_number % 3):
                device.write(lpn, image(0x21 + round_number))
                if lpn % 5 == 0:
                    device.read(lpn)
                if lpn % 7 == 0 and device.can_write_delta(lpn, offset, 2):
                    device.write_delta(lpn, offset, bytes([round_number, lpn]))
        snapshot = device.stats.snapshot()
        assert snapshot["gc_erases"] > 0 and snapshot["delta_writes"] > 0
        for key, value in snapshot.items():
            read = getattr(device.stats, key)
            assert (read, type(read)) == (value, type(value)), key

    def test_stats_attribute_read_builds_no_snapshot(self, monkeypatch):
        device = make_device(shards=4)
        device.write(5, image())
        for shard in device.shards:
            monkeypatch.setattr(shard, "snapshot", None)
        assert device.stats.host_page_writes == 1
        assert device.stats.ipa_fraction == 0.0

    def test_gc_runs_independently_per_shard(self):
        """Churning pages of one shard erases only that shard's blocks."""
        device = make_device(shards=2, logical_pages=16, blocks_per_chip=6)
        target = [lpn for lpn in range(32) if lpn % 2 == 0]  # all on shard 0
        for round_number in range(12):
            for lpn in target:
                device.write(lpn, image())
        assert device.shards[0].stats.gc_erases > 0
        assert device.shards[1].stats.gc_erases == 0
        assert device.snapshot()["gc_erases"] == device.shards[0].stats.gc_erases


class TestTelemetry:
    def test_per_shard_counter_labels(self):
        telemetry = Telemetry()
        device = make_device(shards=2, telemetry=telemetry)
        device.write(0, image())  # shard 0
        device.write(1, image())  # shard 1
        device.read(0)
        metrics = telemetry.metrics
        assert metrics.get("shard0_device_host_page_writes").value == 1
        assert metrics.get("shard1_device_host_page_writes").value == 1
        assert metrics.get("shard0_device_host_reads").value == 1

    def test_block_ssd_shards_export_their_internal_counters_per_shard(self):
        """Every stats object under a shard exports under its label: the
        black-box shards' internal FTL counters included, none shared."""
        geometry = FlashGeometry(
            chips=1, blocks_per_chip=8, pages_per_block=8,
            page_size=PAGE_SIZE, oob_size=32, cell_type=CellType.SLC,
        )
        telemetry = Telemetry()
        device = ShardedDevice(
            [BlockSSD(FlashMemory(geometry), capacity_pages=12) for _ in range(2)]
        )
        telemetry.attach_device(device)
        device.write(0, image())  # shard 0
        device.read(0)
        metrics = telemetry.metrics
        assert metrics.get("device_host_reads") is None
        assert metrics.get("shard0_blockssd_reads").value == 1
        assert metrics.get("shard0_device_host_reads").value == 1
        assert metrics.get("shard1_device_host_reads").value == 0

    def test_events_carry_global_lpns(self):
        telemetry = Telemetry()
        device = make_device(shards=4, telemetry=telemetry)
        seen = []
        telemetry.events.subscribe(HostIOEvent, seen.append)
        device.write(7, image())  # shard 3, local 1
        device.read(7)
        assert [event.lpn for event in seen] == [7, 7]

    def test_gc_events_carry_shard_labels(self):
        telemetry = Telemetry()
        device = make_device(
            shards=2, logical_pages=16, blocks_per_chip=6, telemetry=telemetry
        )
        regions = set()
        telemetry.events.subscribe_all(
            lambda event: regions.add(getattr(event, "region", None))
        )
        for round_number in range(12):
            for lpn in range(0, 32, 2):  # shard 0 only
                device.write(lpn, image())
        assert "shard0/default" in regions
        assert "shard1/default" not in regions

    def test_collect_gauges_prefixed_per_shard(self):
        telemetry = Telemetry()
        device = make_device(shards=2, telemetry=telemetry)
        device.write(0, image())
        telemetry.collect()
        assert telemetry.metrics.get("shard0_chip_0_busy_time_us") is not None
        assert telemetry.metrics.get("shard1_wear_max_erase_count") is not None


def test_iter_shard_views():
    device = make_device(shards=2)
    labels = [label for label, __ in iter_shard_views(device)]
    assert labels == ["shard0", "shard1"]
    plain = make_child()
    assert [label for label, __ in iter_shard_views(plain)] == [""]


class TestMergeSnapshotsAsymmetric:
    """Regression: shards with heterogeneous traffic used to KeyError.

    A shard that never serviced a delta write (or any write at all) has
    no ``delta_writes`` / latency keys in its snapshot; merging must sum
    over the union of keys with missing counters contributing zero."""

    def test_asymmetric_shard_traffic_merges(self):
        device = make_device(shards=3)
        # Only shard 0's LPNs get traffic; shard 0 alone sees a delta.
        for _ in range(3):
            device.write(0, image())
        device.write_delta(0, PAGE_SIZE - TAIL, b"\x01")
        merged = merge_snapshots(device.shard_snapshots())
        assert merged == device.snapshot()
        assert merged["host_writes"] == 4
        assert merged["delta_writes"] == 1

    def test_union_of_keys_with_zero_defaults(self):
        rich = {"host_writes": 4, "delta_writes": 2, "gc_erases": 1}
        poor = {"host_writes": 1}
        merged = merge_snapshots([poor, rich])
        assert merged["delta_writes"] == 2
        assert merged["gc_erases"] == 1
        assert merged["host_writes"] == 5
        assert merged["ipa_fraction"] == pytest.approx(2 / 5)

    def test_idle_shard_contributes_nothing(self):
        merged = merge_snapshots([{}, {"host_writes": 2, "gc_erases": 4}])
        assert merged["host_writes"] == 2
        assert merged["erases_per_host_write"] == pytest.approx(2.0)
