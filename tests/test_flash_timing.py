"""Tests for the flash latency model and chip-pipeline timing."""

import pytest

from repro.flash.constants import (
    ERASE_LATENCY_US,
    PROGRAM_LATENCY_US,
    READ_LATENCY_US,
    TRANSFER_US_PER_KIB,
    CellType,
    PageKind,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.chip import FlashChip
from repro.flash.timing import LatencyModel
from repro.session import SessionConfig, open_device


class TestLatencyTables:
    def test_read_is_array_time_plus_transfer(self):
        model = LatencyModel()
        latency = model.read(CellType.SLC, PageKind.LSB, 2048)
        expected = READ_LATENCY_US[(CellType.SLC, PageKind.LSB)] + 2 * TRANSFER_US_PER_KIB
        assert latency == pytest.approx(expected)

    def test_msb_pages_cost_more(self):
        model = LatencyModel()
        lsb = model.program(CellType.MLC, PageKind.LSB, 2048)
        msb = model.program(CellType.MLC, PageKind.MSB, 2048)
        assert msb > lsb

    def test_erase_per_cell_type(self):
        model = LatencyModel()
        for cell_type in CellType:
            assert model.erase(cell_type) == ERASE_LATENCY_US[cell_type]

    def test_transfer_proportional_to_bytes(self):
        model = LatencyModel()
        assert model.transfer(1024) == pytest.approx(TRANSFER_US_PER_KIB)
        assert model.transfer(4096) == pytest.approx(4 * TRANSFER_US_PER_KIB)
        assert model.transfer(0) == 0.0

    def test_partial_program_pays_full_array_time(self):
        # An ISPP delta append costs the full pulse train but only the
        # delta's transfer time ("a partial write of 512B has the same
        # latency as a write of a whole 2KB flash page", array-wise).
        model = LatencyModel()
        full = model.program(CellType.SLC, PageKind.LSB, 2048)
        partial = model.program(CellType.SLC, PageKind.LSB, 16)
        array_time = PROGRAM_LATENCY_US[(CellType.SLC, PageKind.LSB)]
        assert partial == pytest.approx(array_time + model.transfer(16))
        assert full - partial == pytest.approx(model.transfer(2048 - 16))

    def test_overrides_replace_table_entries(self):
        model = LatencyModel(overrides={
            ("read", CellType.SLC, PageKind.LSB): 1.0,
            ("erase", CellType.SLC, None): 2.0,
        })
        assert model.read(CellType.SLC, PageKind.LSB, 0) == 1.0
        assert model.erase(CellType.SLC) == 2.0
        # untouched entries still come from the default tables
        assert model.erase(CellType.MLC) == ERASE_LATENCY_US[CellType.MLC]

    def test_observer_sees_every_computed_latency(self):
        seen = []
        model = LatencyModel(observer=lambda *args: seen.append(args))
        model.read(CellType.SLC, PageKind.LSB, 1024)
        model.program(CellType.MLC, PageKind.MSB, 1024)
        model.erase(CellType.TLC)
        ops = [entry[0] for entry in seen]
        assert ops == ["read", "program", "erase"]
        read_op, program_op, erase_op = seen
        assert read_op[1:3] == (CellType.SLC, PageKind.LSB)
        assert program_op[1:3] == (CellType.MLC, PageKind.MSB)
        assert erase_op[1:3] == (CellType.TLC, None)
        assert all(entry[3] > 0 for entry in seen)


class TestChipPipeline:
    def _chip(self):
        geometry = FlashGeometry(
            chips=1, blocks_per_chip=2, pages_per_block=4, page_size=2048
        )
        return FlashChip(geometry)

    def test_occupy_serializes_back_to_back_commands(self):
        chip = self._chip()
        end = chip.occupy(0.0, 10.0)
        assert end == 10.0 and chip.busy_until == 10.0
        end = chip.occupy(max(0.0, chip.busy_until), 5.0)
        assert end == 15.0 and chip.busy_until == 15.0

    def test_busy_time_excludes_idle_gaps(self):
        chip = self._chip()
        chip.occupy(0.0, 10.0)
        chip.occupy(50.0, 5.0)  # idle from 10 to 50
        assert chip.busy_until == 55.0
        assert chip.busy_time_us == 15.0

    def test_chips_run_in_parallel(self):
        first, second = self._chip(), self._chip()
        first.occupy(0.0, 100.0)
        second.occupy(0.0, 100.0)
        assert first.busy_until == second.busy_until == 100.0


class TestDeviceSerialization:
    def test_same_chip_writes_queue_behind_each_other(self):
        device = open_device(SessionConfig(logical_pages=64, chips=1))
        page = bytes(device.page_size)
        first = device.write(0, page)
        second = device.write(1, page)
        assert second.latency_us == pytest.approx(2 * first.latency_us)
        assert device.flash.chips[0].busy_time_us == pytest.approx(
            2 * first.latency_us
        )

    def test_later_start_time_sees_a_free_pipeline(self):
        device = open_device(SessionConfig(logical_pages=64, chips=1))
        page = bytes(device.page_size)
        first = device.write(0, page)
        second = device.write(1, page, now=10 * first.latency_us)
        assert second.latency_us == pytest.approx(first.latency_us)

    def test_read_latency_matches_model(self):
        device = open_device(SessionConfig(logical_pages=64, chips=1))
        page = bytes(device.page_size)
        write = device.write(0, page)
        read = device.read(0, now=write.latency_us)
        model = device.flash.latency
        cell = device.flash.geometry.cell_type
        assert read.latency_us == pytest.approx(
            model.read(cell, PageKind.LSB, device.page_size)
        )
