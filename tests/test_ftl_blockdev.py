"""Tests for the conventional block-device SSD with write_delta (paper §7)."""

import pytest

from repro.errors import DeltaWriteError, FTLError
from repro.flash import CellType, FlashGeometry, FlashMemory
from repro.ftl.blockdev import BlockSSD
from repro.ftl.region import IPAMode


def make_ssd(cell_type=CellType.SLC, capacity=64, **kwargs):
    geometry = FlashGeometry(
        chips=2, blocks_per_chip=16, pages_per_block=8, page_size=256,
        oob_size=32, cell_type=cell_type,
    )
    return BlockSSD(FlashMemory(geometry), capacity_pages=capacity, **kwargs)


def image(ssd, fill=0x21, erased_tail=64):
    return bytes([fill]) * (ssd.page_size - erased_tail) + b"\xff" * erased_tail


class TestBlockInterface:
    def test_write_read_roundtrip(self):
        ssd = make_ssd()
        ssd.write(3, image(ssd))
        assert ssd.read(3).data == image(ssd)
        assert ssd.stats.reads == 1
        assert ssd.stats.writes == 1

    def test_lba_bounds(self):
        ssd = make_ssd(capacity=8)
        with pytest.raises(FTLError):
            ssd.read(8)
        with pytest.raises(FTLError):
            ssd.write(-1, image(ssd))

    def test_trim(self):
        ssd = make_ssd()
        ssd.write(0, image(ssd))
        ssd.trim(0)
        assert not ssd.internal.is_mapped(0)


class TestWriteDelta:
    def test_delta_into_erased_tail_is_in_place(self):
        ssd = make_ssd()
        ssd.write(0, image(ssd))
        home = ssd.internal.physical_address(0)
        ssd.write_delta(0, ssd.page_size - 32, b"\x01\x02")
        assert ssd.stats.deltas_in_place == 1
        assert ssd.stats.deltas_rmw == 0
        assert ssd.internal.physical_address(0) == home
        assert ssd.read(0).data[ssd.page_size - 32 :][:2] == b"\x01\x02"

    def test_delta_over_programmed_cells_falls_back_to_rmw(self):
        """The black-box device absorbs the impossible append itself."""
        ssd = make_ssd()
        ssd.write(0, b"\x00" * ssd.page_size)
        home = ssd.internal.physical_address(0)
        io = ssd.write_delta(0, 10, b"\x55\x66")
        assert ssd.stats.deltas_rmw == 1
        assert ssd.internal.physical_address(0) != home  # moved out-of-place
        stored = ssd.read(0).data
        assert stored[10:12] == b"\x55\x66"
        assert stored[:10] == b"\x00" * 10
        assert io.latency_us > 0

    def test_rmw_costs_more_than_in_place(self):
        ssd = make_ssd()
        ssd.write(0, image(ssd))
        ssd.write(1, b"\x00" * ssd.page_size)
        in_place = ssd.write_delta(0, ssd.page_size - 32, b"\x01", now=1e9)
        rmw = ssd.write_delta(1, 10, b"\x01", now=2e9)
        assert rmw.latency_us > in_place.latency_us

    def test_delta_on_unwritten_lba_is_rmw_error(self):
        ssd = make_ssd()
        with pytest.raises(DeltaWriteError):
            ssd.write_delta(0, 0, b"\x01")

    def test_empty_delta_rejected(self):
        ssd = make_ssd()
        ssd.write(0, image(ssd))
        with pytest.raises(FTLError):
            ssd.write_delta(0, 0, b"")

    def test_odd_mlc_msb_residents_fall_back(self):
        ssd = make_ssd(cell_type=CellType.MLC, ipa_mode=IPAMode.ODD_MLC)
        img = image(ssd)
        for lba in range(4):
            ssd.write(lba, img)
        for lba in range(4):
            ssd.write_delta(lba, ssd.page_size - 32, b"\x0a")
        # Roughly half the pages sit on MSB positions: some fallbacks.
        assert ssd.stats.deltas_in_place >= 1
        assert ssd.stats.deltas_rmw >= 1
        assert 0.0 < ssd.stats.rmw_fraction < 1.0

    def test_data_correct_regardless_of_path(self):
        """Host-visible semantics identical whether in-place or RMW."""
        ssd = make_ssd(cell_type=CellType.MLC, ipa_mode=IPAMode.ODD_MLC)
        img = image(ssd)
        expected = {}
        for lba in range(8):
            ssd.write(lba, img)
            payload = bytes([lba + 1, lba + 2])
            ssd.write_delta(lba, ssd.page_size - 32, payload)
            expected[lba] = payload
        for lba, payload in expected.items():
            stored = ssd.read(lba).data
            assert stored[ssd.page_size - 32 :][:2] == payload


class TestWear:
    def test_wear_summary_exposed(self):
        ssd = make_ssd(capacity=16)
        img = image(ssd)
        for round_number in range(12):
            for lba in range(16):
                ssd.write(lba, img)
        summary = ssd.wear_summary()
        assert summary["total"] > 0

    def test_in_place_deltas_reduce_wear_vs_rmw(self):
        def churn(use_delta_area):
            ssd = make_ssd(capacity=16)
            base = image(ssd) if use_delta_area else b"\x00" * ssd.page_size
            for lba in range(16):
                ssd.write(lba, base)
            offset = ssd.page_size - 64
            for round_number in range(8):
                for lba in range(16):
                    ssd.write_delta(lba, offset + round_number * 4, bytes([round_number]))
            return ssd.internal.stats.gc_erases, ssd.stats.rmw_fraction

        erases_ipa, rmw_ipa = churn(True)
        erases_rmw, rmw_rmw = churn(False)
        assert rmw_ipa == 0.0
        assert rmw_rmw == 1.0
        assert erases_ipa <= erases_rmw
