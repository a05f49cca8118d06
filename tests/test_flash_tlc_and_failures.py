"""TLC / 3D-NAND support (Appendix C.3) and failure propagation."""

import pytest

from repro.core import NxMScheme
from repro.errors import UncorrectableError, WearOutError
from repro.flash import (
    CellType,
    EccSegment,
    FaultInjector,
    FlashGeometry,
    FlashMemory,
    PhysicalAddress,
    SegmentedEcc,
)
from repro.ftl import IPAMode, NoFTL, RegionConfig, single_region_device
from repro.storage import Char, Column, EngineConfig, Int32, Int64, Schema, StorageEngine


class TestTLC:
    """Appendix C.3: 3D/TLC NAND uses the pSLC or odd-MLC techniques."""

    def tlc_geometry(self):
        return FlashGeometry(
            chips=2, blocks_per_chip=24, pages_per_block=16, page_size=512,
            oob_size=32, cell_type=CellType.TLC,
        )

    def test_tlc_endurance_is_lowest(self):
        memory = FlashMemory(self.tlc_geometry())
        assert memory.chips[0].blocks[0].endurance == 4000

    def test_tlc_odd_mode_device(self):
        device = single_region_device(
            FlashMemory(self.tlc_geometry()), logical_pages=48,
            ipa_mode=IPAMode.ODD_MLC,
        )
        image = b"\x00" * 384 + b"\xff" * 128
        for lpn in range(16):
            device.write(lpn, image)
        appended = rejected = 0
        for lpn in range(16):
            if device.can_write_delta(lpn, 400, 2):
                device.write_delta(lpn, 400, b"\x01\x02")
                appended += 1
            else:
                rejected += 1
        assert appended >= 1 and rejected >= 1  # LSB vs MSB split

    def test_tlc_pslc_engine_end_to_end(self):
        geometry = self.tlc_geometry()
        device = NoFTL.create(
            FlashMemory(geometry),
            [RegionConfig("hot", logical_pages=48, ipa_mode=IPAMode.PSLC)],
        )
        engine = StorageEngine(
            device, EngineConfig(buffer_pages=16, scheme=NxMScheme(2, 4))
        )
        schema = Schema([Column("k", Int32()), Column("v", Int64()),
                         Column("p", Char(20))])
        table = engine.create_table("t", schema, key=["k"])
        txn = engine.begin()
        for i in range(40):
            table.insert(txn, (i, 0, "x"))
        engine.commit(txn)
        engine.flush_all()
        for i in range(40):
            txn = engine.begin()
            table.update(txn, table.lookup(i), {"v": i})
            engine.commit(txn)
            engine.flush_all()
        assert engine.ipa.stats.ipa_flushes > 0
        engine.pool.drop_all()
        assert table.read(table.lookup(7))[1] == 7


class TestWearOut:
    def test_block_wear_out_surfaces(self):
        geometry = FlashGeometry(chips=1, blocks_per_chip=4, pages_per_block=4,
                                 page_size=128, oob_size=16)
        memory = FlashMemory(geometry, endurance=3)
        for __ in range(3):
            memory.erase(0, 0)
        with pytest.raises(WearOutError):
            memory.erase(0, 0)

    def test_device_hits_endurance_wall(self):
        """A device whose blocks wear out raises rather than corrupting."""
        geometry = FlashGeometry(chips=1, blocks_per_chip=6, pages_per_block=4,
                                 page_size=128, oob_size=16)
        memory = FlashMemory(geometry, endurance=4)
        device = single_region_device(memory, logical_pages=8,
                                      ipa_mode=IPAMode.NATIVE)
        image = b"\x00" * 96 + b"\xff" * 32
        with pytest.raises(WearOutError):
            for round_number in range(2000):
                device.write(round_number % 8, image)


class TestUncorrectable:
    def test_double_error_in_one_segment_raises(self):
        ecc = SegmentedEcc([EccSegment(0, 64)], oob_size=16)
        data = bytes(range(64))
        code = ecc.encode_segment(0, data)
        corrupted = bytearray(data)
        corrupted[3] ^= 0x01
        corrupted[9] ^= 0x10
        with pytest.raises(UncorrectableError):
            ecc.verify(corrupted, code + b"\xff" * 12, 1)

    def test_engine_load_raises_on_uncorrectable(self):
        """Too much corruption must fail loudly, never silently."""
        from repro.session import SessionConfig, open_device
        from repro.core import IPAManager

        device = open_device(SessionConfig(logical_pages=32, chips=2, page_size=512))
        manager = IPAManager(device, NxMScheme(2, 4), ecc_enabled=True)
        from repro.storage import SlottedPage
        from repro.storage.buffer import Frame

        page = SlottedPage.format(0, 512, NxMScheme(2, 4).area_size)
        page.insert(b"\x42" * 16)
        frame = Frame(0, page)
        manager.flush(frame)
        address = device.physical_address(0)
        stored = device.flash.page_at(device.flash.geometry.ppn(address))
        stored.data[40] ^= 0x01
        stored.data[41] ^= 0x01  # two bit errors in the body segment
        with pytest.raises(UncorrectableError):
            manager.load(0)


class TestInterferenceConfinement:
    def test_msb_neighbour_errors_limited_to_delta_columns(self):
        """Appendix C.2: append interference only touches the driven
        bitlines, so MSB neighbours' page bodies stay clean."""
        geometry = FlashGeometry(
            chips=1, blocks_per_chip=2, pages_per_block=8, page_size=256,
            oob_size=16, cell_type=CellType.MLC,
        )
        injector = FaultInjector(interference_rate=1.0, seed=3)
        memory = FlashMemory(geometry, fault_injector=injector)
        body = b"\xaa" * 192
        tail = b"\xff" * 64
        for index in range(4):
            memory.program(geometry.ppn(PhysicalAddress(0, 0, index)), body + tail)
        # Append into LSB page 2's tail; neighbours 1 and 3 (MSB) may
        # be disturbed, but only within the tail byte range.
        for k in range(8):
            memory.program(geometry.ppn(PhysicalAddress(0, 0, 2)), bytes([k]), offset=192 + k)
        assert injector.interference_flips > 0
        for neighbour in (1, 3):
            data = memory.read(geometry.ppn(PhysicalAddress(0, 0, neighbour))).data
            assert data[:192] == body, "interference leaked into the body"
