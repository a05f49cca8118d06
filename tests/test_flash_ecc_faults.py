"""Unit tests for the ECC codec and the fault-injection model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import UncorrectableError
from repro.flash import (
    CODE_SIZE,
    EccSegment,
    FaultInjector,
    FlashGeometry,
    FlashMemory,
    PhysicalAddress,
    SegmentedEcc,
    compute_code,
    correct,
)
from repro.flash.constants import CellType
from repro.flash.page import FlashPage


class TestHammingCode:
    def test_clean_data_verifies(self):
        data = bytearray(b"hello flash world" * 3)
        code = compute_code(bytes(data))
        assert correct(data, code) == 0

    def test_single_bit_error_corrected(self):
        data = bytearray(b"some stable page content 123456")
        code = compute_code(bytes(data))
        data[7] ^= 0x10  # flip one bit
        assert correct(data, code) == 1
        assert bytes(data) == b"some stable page content 123456"

    def test_every_single_bit_position_correctable(self):
        original = bytes(range(64))
        code = compute_code(original)
        for byte_index in range(64):
            for bit in range(8):
                data = bytearray(original)
                data[byte_index] ^= 1 << bit
                assert correct(data, code) == 1
                assert bytes(data) == original

    def test_double_bit_error_detected(self):
        data = bytearray(b"\x00" * 32)
        code = compute_code(bytes(data))
        data[1] ^= 0x01
        data[2] ^= 0x01
        with pytest.raises(UncorrectableError):
            correct(data, code)

    def test_bad_code_size_raises(self):
        with pytest.raises(UncorrectableError):
            correct(bytearray(b"xy"), b"\x00")


@given(st.binary(min_size=1, max_size=128), st.integers(min_value=0))
def test_property_any_single_flip_is_corrected(data, position):
    bit = position % (len(data) * 8)
    byte_index, bit_index = divmod(bit, 8)
    code = compute_code(data)
    corrupted = bytearray(data)
    corrupted[byte_index] ^= 1 << bit_index
    assert correct(corrupted, code) == 1
    assert bytes(corrupted) == data


class TestSegmentedEcc:
    def test_layout_fits_oob(self):
        segments = [EccSegment(0, 100), EccSegment(100, 28)]
        ecc = SegmentedEcc(segments, oob_size=16)
        assert ecc.oob_offset(1) == CODE_SIZE

    def test_too_many_segments_rejected(self):
        with pytest.raises(UncorrectableError):
            SegmentedEcc([EccSegment(0, 8)] * 10, oob_size=8)

    def test_verify_corrects_only_programmed_segments(self):
        page = bytes(range(100)) + b"\xff" * 28
        segments = [EccSegment(0, 100), EccSegment(100, 28)]
        ecc = SegmentedEcc(segments, oob_size=64)
        oob = bytearray(b"\xff" * 64)
        code0 = ecc.encode_segment(0, page)
        oob[0:CODE_SIZE] = code0
        corrupted = bytearray(page)
        corrupted[5] ^= 0x08
        corrected = ecc.verify(corrupted, bytes(oob), programmed_segments=1)
        assert corrected == 1
        assert bytes(corrupted) == page

    def test_verify_delta_segment_after_append(self):
        """Body + one appended delta record, each with its own code."""
        body = bytes(range(100))
        delta = b"\x00\x12\x00\x07\x42" + b"\xff" * 23
        page = body + delta
        ecc = SegmentedEcc([EccSegment(0, 100), EccSegment(100, 28)], oob_size=64)
        oob = bytearray(b"\xff" * 64)
        oob[0:CODE_SIZE] = ecc.encode_segment(0, page)
        oob[CODE_SIZE : 2 * CODE_SIZE] = ecc.encode_segment(1, page)
        corrupted = bytearray(page)
        corrupted[102] ^= 0x01  # error inside the delta record
        assert ecc.verify(corrupted, bytes(oob), programmed_segments=2) == 1
        assert bytes(corrupted) == page


class TestFaultInjector:
    def test_retention_flips_zero_bits_to_one(self):
        page = FlashPage(64, 8)
        page.program(b"\x00" * 64)
        injector = FaultInjector(retention_rate=0.05, seed=42)
        flips = injector.age(page)
        assert flips > 0
        # every flip raised a bit towards the erased state
        assert all(value != 0x00 for value in page.data) or flips < 64 * 8
        assert injector.retention_flips == flips

    def test_retention_skips_erased_pages(self):
        page = FlashPage(64, 8)
        injector = FaultInjector(retention_rate=1.0, seed=1)
        assert injector.age(page) == 0

    def test_interference_confined_to_driven_bitlines(self):
        """Flips land only inside the programmed byte range of neighbours."""
        neighbour = FlashPage(64, 8)
        neighbour.program(b"\xaa" * 64)
        injector = FaultInjector(interference_rate=1.0, seed=7)
        injector.interfere(neighbour, offset=48, length=16)
        for i in range(48):
            assert neighbour.data[i] == 0xAA, "interference leaked outside range"

    def test_interference_only_adds_charge(self):
        neighbour = FlashPage(16, 8)
        neighbour.program(b"\xff" * 16)
        injector = FaultInjector(interference_rate=1.0, seed=3)
        injector.interfere(neighbour, 0, 16)
        # one bit went 1 -> 0 somewhere
        assert sum(bin(b).count("0") - 0 for b in neighbour.data) >= 0
        assert injector.interference_flips == 1

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(retention_rate=2.0)
        with pytest.raises(ValueError):
            FaultInjector(interference_rate=-1.0)

    def test_memory_level_interference_on_append(self):
        geometry = FlashGeometry(
            chips=1, blocks_per_chip=1, pages_per_block=4, page_size=64,
            oob_size=8, cell_type=CellType.MLC,
        )
        injector = FaultInjector(interference_rate=1.0, seed=5)
        mem = FlashMemory(geometry, fault_injector=injector)
        # program pages 0..2 in order, leave tails erased
        for index in range(3):
            mem.program(geometry.ppn(PhysicalAddress(0, 0, index)), b"\x00" * 48 + b"\xff" * 16)
        # append to LSB page 1's erased tail: neighbours 0 and 2 can be hit
        mem.program(geometry.ppn(PhysicalAddress(0, 0, 2)), b"\x33" * 4, offset=48)
        assert injector.interference_flips >= 1

    def test_memory_age_counts_flips(self):
        geometry = FlashGeometry(chips=1, blocks_per_chip=1, pages_per_block=2,
                                 page_size=32, oob_size=4)
        injector = FaultInjector(retention_rate=0.2, seed=11)
        mem = FlashMemory(geometry, fault_injector=injector)
        mem.program(geometry.ppn(PhysicalAddress(0, 0, 0)), b"\x00" * 32)
        assert mem.age() > 0
