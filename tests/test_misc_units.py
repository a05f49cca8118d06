"""Smaller unit tests: buffer resize, engine reporting, rand helpers,
flash constants, checksum semantics."""

import random

import pytest

from repro.core import NxMScheme
from repro.flash.constants import (
    ENDURANCE_CYCLES,
    ERASE_LATENCY_US,
    PROGRAM_LATENCY_US,
    READ_LATENCY_US,
    CellType,
    PageKind,
)
from repro.errors import BufferError_, BufferPoolExhaustedError
from repro.storage import SlottedPage
from repro.storage.buffer import BufferPool
from repro.session import SessionConfig, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig
from repro.workloads.rand import uniform_except


class FakeBackend:
    def __init__(self):
        self.flushed = []

    def load(self, lpn, now):
        return SlottedPage.format(lpn, 256, 0), 0, 1.0

    def flush(self, frame, now):
        self.flushed.append(frame.lpn)
        frame.page.reset_tracking()
        return "oop", 1.0


class TestBufferResize:
    def test_shrink_evicts_lru(self):
        backend = FakeBackend()
        pool = BufferPool(8, backend.load, backend.flush, dirty_threshold=1.0)
        for lpn in range(8):
            pool.fetch(lpn, 0.0)
            pool.unpin(lpn)
        pool.resize(3)
        assert len(pool) == 3
        assert 7 in pool and 0 not in pool

    def test_shrink_flushes_dirty_victims(self):
        backend = FakeBackend()
        pool = BufferPool(4, backend.load, backend.flush, dirty_threshold=1.0)
        for lpn in range(4):
            pool.fetch(lpn, 0.0)
            pool.unpin(lpn, dirty=True)
        pool.resize(1)
        assert sorted(backend.flushed) == [0, 1, 2]

    def test_grow_keeps_frames(self):
        backend = FakeBackend()
        pool = BufferPool(2, backend.load, backend.flush, dirty_threshold=1.0)
        pool.fetch(0, 0.0)
        pool.unpin(0)
        pool.resize(10)
        assert 0 in pool
        assert pool.capacity == 10

    def test_resize_to_zero_rejected(self):
        backend = FakeBackend()
        pool = BufferPool(2, backend.load, backend.flush)
        with pytest.raises(BufferError_):
            pool.resize(0)

    def test_shrink_below_pinned_raises_exhausted(self):
        backend = FakeBackend()
        pool = BufferPool(4, backend.load, backend.flush, dirty_threshold=1.0)
        for lpn in range(4):
            pool.fetch(lpn, 0.0)  # left pinned
        with pytest.raises(BufferPoolExhaustedError, match=r"pinned \(4/2\)"):
            pool.resize(2)
        assert len(pool) == 4 and backend.flushed == []


class TestEngineReporting:
    def test_stats_summary_shape(self):
        engine = open_session(SessionConfig(
            logical_pages=200, chips=4, scheme=NxMScheme(2, 4), buffer_pages=200,
        )).engine
        driver = load_scaled(engine, TPCB(TPCBConfig(accounts_per_branch=1000)),
                             buffer_fraction=0.3)
        driver.run(200)
        summary = engine.stats_summary()
        assert {"clock_us", "committed", "device", "ipa", "buffer"} <= set(summary)
        assert summary["committed"] == 200 + 1  # workload txns + load txn
        assert 0.0 <= summary["buffer"]["hit_ratio"] <= 1.0

    def test_mean_foreground_read(self):
        engine = open_session(SessionConfig(
            logical_pages=200, chips=4, buffer_pages=16,
        )).engine
        driver = load_scaled(engine, TPCB(TPCBConfig(accounts_per_branch=2000)),
                             buffer_fraction=0.05)
        driver.run(300)
        assert engine.foreground_reads > 0
        assert engine.mean_foreground_read_us > 0


class TestRandHelpers:
    def test_uniform_except_never_returns_excluded(self):
        rng = random.Random(1)
        for __ in range(300):
            assert uniform_except(rng, 0, 10, 5) != 5

    def test_uniform_except_covers_range(self):
        rng = random.Random(2)
        seen = {uniform_except(rng, 0, 4, 2) for __ in range(200)}
        assert seen == {0, 1, 3, 4}

    def test_uniform_except_empty_range(self):
        with pytest.raises(ValueError):
            uniform_except(random.Random(0), 3, 3, 3)


class TestFlashConstants:
    def test_endurance_ordering(self):
        assert (ENDURANCE_CYCLES[CellType.SLC]
                > ENDURANCE_CYCLES[CellType.MLC]
                > ENDURANCE_CYCLES[CellType.TLC])

    def test_latency_tables_cover_kinds(self):
        for cell in (CellType.MLC, CellType.TLC):
            assert (cell, PageKind.LSB) in PROGRAM_LATENCY_US
            assert (cell, PageKind.MSB) in PROGRAM_LATENCY_US
        assert (CellType.SLC, PageKind.LSB) in READ_LATENCY_US

    def test_msb_slower_than_lsb(self):
        for cell in (CellType.MLC, CellType.TLC):
            assert (PROGRAM_LATENCY_US[(cell, PageKind.MSB)]
                    > PROGRAM_LATENCY_US[(cell, PageKind.LSB)])

    def test_erase_slowest(self):
        for cell in CellType:
            assert ERASE_LATENCY_US[cell] > PROGRAM_LATENCY_US[(cell, PageKind.LSB)]


class TestPageChecksum:
    def test_checksum_roundtrip(self):
        page = SlottedPage.format(1, 512, 64)
        page.insert(b"payload")
        page.update_checksum()
        assert page.verify_checksum()

    def test_checksum_detects_content_change(self):
        page = SlottedPage.format(1, 512, 64)
        slot = page.insert(b"payload")
        page.update_checksum()
        page.update_record_bytes(slot, 0, b"PAYLOAD")
        assert not page.verify_checksum()

    def test_checksum_ignores_delta_area(self):
        page = SlottedPage.format(1, 512, 64)
        page.insert(b"payload")
        page.update_checksum()
        page.image[500] = 0x00  # inside the delta area
        assert page.verify_checksum()

    def test_checksum_change_is_tracked_metadata(self):
        page = SlottedPage.format(1, 512, 64)
        slot = page.insert(b"\x00" * 4)
        page.reset_tracking()
        page.update_record_bytes(slot, 0, b"\x01" * 4)
        page.update_checksum()
        body, meta = page.classify_tracked()
        assert len(body) == 4
        assert 1 <= len(meta) <= 4  # the changed checksum bytes
