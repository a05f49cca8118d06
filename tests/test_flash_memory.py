"""Unit tests for the FlashMemory facade: commands, stats, timing, wear."""

import pytest

from repro.errors import EraseError, ProgramError, ProgramOrderError
from repro.flash import (
    CellType,
    FlashGeometry,
    FlashMemory,
    LatencyModel,
    PageKind,
    PhysicalAddress,
)
from repro.errors import AddressError


def ppn(mem, chip, block, page):
    return mem.geometry.ppn(PhysicalAddress(chip, block, page))


def small_memory(cell_type=CellType.SLC, **kwargs):
    geometry = FlashGeometry(
        chips=2, blocks_per_chip=4, pages_per_block=8, page_size=256,
        oob_size=32, cell_type=cell_type,
    )
    return FlashMemory(geometry, **kwargs)


class TestReadProgram:
    def test_program_then_read(self):
        mem = small_memory()
        addr = ppn(mem, 0, 0, 0)
        payload = bytes(range(256))
        mem.program(addr, payload)
        assert mem.read(addr).data == payload

    def test_delta_append_counts_separately(self):
        mem = small_memory()
        addr = ppn(mem, 0, 0, 0)
        mem.program(addr, b"\x01" * 128 + b"\xff" * 128)
        mem.program(addr, b"\x02\x02", offset=128)
        assert mem.stats.page_programs == 1
        assert mem.stats.delta_programs == 1
        assert mem.read(addr).data[128:130] == b"\x02\x02"

    def test_append_into_programmed_region_raises(self):
        mem = small_memory()
        addr = ppn(mem, 0, 0, 0)
        mem.program(addr, b"\x00" * 256)
        with pytest.raises(ProgramError):
            mem.program(addr, b"\x55", offset=0)

    def test_out_of_range_ppn_raises(self):
        mem = small_memory()
        for bad in (-1, mem.geometry.total_pages):
            with pytest.raises(AddressError):
                mem.read(bad)

    def test_stats_bytes(self):
        mem = small_memory()
        addr = ppn(mem, 0, 0, 0)
        mem.program(addr, b"\xaa" * 256)
        mem.read(addr)
        assert mem.stats.bytes_programmed == 256
        assert mem.stats.bytes_read == 256


class TestErase:
    def test_erase_resets_pages(self):
        mem = small_memory()
        addr = ppn(mem, 0, 1, 0)
        mem.program(addr, b"\x00" * 256)
        mem.erase(0, 1)
        assert mem.read(addr).data == b"\xff" * 256
        assert mem.stats.block_erases == 1

    def test_erase_bad_block_raises(self):
        mem = small_memory()
        with pytest.raises(EraseError):
            mem.erase(0, 99)

    def test_total_erases_and_wear_summary(self):
        mem = small_memory()
        mem.erase(0, 0)
        mem.erase(0, 0)
        mem.erase(1, 3)
        assert mem.total_erases() == 3
        summary = mem.wear_summary()
        assert summary["max"] == 2
        assert summary["min"] == 0
        assert summary["total"] == 3


class TestProgramOrder:
    def test_mlc_enforces_in_order_first_programs(self):
        mem = small_memory(cell_type=CellType.MLC)
        mem.program(ppn(mem, 0, 0, 4), b"\x00" * 256)
        with pytest.raises(ProgramOrderError):
            mem.program(ppn(mem, 0, 0, 2), b"\x00" * 256)

    def test_mlc_reprogram_of_lower_page_allowed(self):
        """Appends to already-programmed pages bypass the order rule."""
        mem = small_memory(cell_type=CellType.MLC)
        mem.program(ppn(mem, 0, 0, 0), b"\x00" * 128 + b"\xff" * 128)
        mem.program(ppn(mem, 0, 0, 2), b"\x00" * 256)
        # page 0 was programmed before page 2; appending to it now is fine
        mem.program(ppn(mem, 0, 0, 0), b"\x11", offset=200)

    def test_slc_allows_random_first_programs(self):
        mem = small_memory(cell_type=CellType.SLC)
        mem.program(ppn(mem, 0, 0, 4), b"\x00" * 256)
        mem.program(ppn(mem, 0, 0, 2), b"\x00" * 256)


class TestPageKinds:
    def test_slc_every_page_is_lsb(self):
        mem = small_memory(cell_type=CellType.SLC)
        assert mem.is_lsb(ppn(mem, 0, 0, 3))

    def test_mlc_alternating_kinds(self):
        mem = small_memory(cell_type=CellType.MLC)
        assert mem.page_kind(ppn(mem, 0, 0, 0)) is PageKind.LSB
        assert mem.page_kind(ppn(mem, 0, 0, 1)) is PageKind.MSB
        assert not mem.is_lsb(ppn(mem, 0, 0, 1))


class TestLatency:
    def test_read_cheaper_than_program(self):
        mem = small_memory()
        addr = ppn(mem, 0, 0, 0)
        program_result = mem.program(addr, b"\x00" * 256)
        read_result = mem.read(addr)
        assert read_result.latency_us < program_result.latency_us

    def test_mlc_msb_program_slower_than_lsb(self):
        mem = small_memory(cell_type=CellType.MLC)
        lsb = mem.program(ppn(mem, 0, 0, 0), b"\x00" * 256)
        msb = mem.program(ppn(mem, 0, 0, 1), b"\x00" * 256)
        assert msb.latency_us > lsb.latency_us

    def test_latency_override(self):
        model = LatencyModel(overrides={("read", CellType.SLC, PageKind.LSB): 1.0})
        model.transfer_us_per_kib = 0.0
        assert model.read(CellType.SLC, PageKind.LSB, 4096) == 1.0

    def test_transfer_scales_with_bytes(self):
        model = LatencyModel()
        small = model.read(CellType.SLC, PageKind.LSB, 64)
        large = model.read(CellType.SLC, PageKind.LSB, 4096)
        assert large > small

    def test_resolved_latencies_match_the_model(self):
        """The array resolves its latencies once, overrides included, to
        the very floats the model computes; the observer sees each one."""
        seen = []
        model = LatencyModel(
            overrides={("program", CellType.MLC, PageKind.MSB): 1234.5},
            observer=lambda *args: seen.append(args),
        )
        mem = small_memory(cell_type=CellType.MLC, latency_model=model)
        lsb = mem.program(ppn(mem, 0, 0, 0), b"\x00" * 100)
        msb = mem.program(ppn(mem, 0, 0, 1), b"\x00" * 256)
        read = mem.read(ppn(mem, 1, 3, 7))
        model.observer = None
        assert lsb.latency_us == model.program(CellType.MLC, PageKind.LSB, 100)
        assert msb.latency_us == model.program(CellType.MLC, PageKind.MSB, 256)
        assert msb.latency_us == 1234.5 + model.transfer(256)
        assert read.latency_us == model.read(CellType.MLC, PageKind.MSB, 256)
        assert [entry[0] for entry in seen] == ["program", "program", "read"]
        assert [entry[3] for entry in seen] == [lsb.latency_us, msb.latency_us, read.latency_us]

    def test_busy_time_accumulates(self):
        mem = small_memory()
        before = mem.stats.busy_time_us
        mem.program(ppn(mem, 0, 0, 0), b"\x00" * 256)
        assert mem.stats.busy_time_us > before
