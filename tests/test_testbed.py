"""Tests for the testbed factories and the buffer-fraction protocol."""

import pytest

from repro.core import NxMScheme
from repro.errors import ReproError
from repro.flash.constants import CellType
from repro.ftl import BlockSSD, ShardedDevice
from repro.ftl.region import IPAMode
from repro.session import SessionConfig, open_device
from repro.testbed import (
    BACKENDS,
    blockssd_device,
    build_engine,
    emulator_device,
    load_scaled,
    openssd_device,
    sharded_device,
)
from repro.workloads import TPCB, TPCBConfig


class TestEmulatorDevice:
    def test_matches_paper_configuration(self):
        device = emulator_device(logical_pages=512)
        assert device.flash.geometry.chips == 16
        assert device.flash.geometry.cell_type is CellType.SLC
        assert device.regions[0].config.overprovisioning == pytest.approx(0.10)
        assert device.regions[0].ipa_mode is IPAMode.NATIVE
        assert not device.serialize_io

    def test_capacity_covers_logical_plus_op(self):
        device = emulator_device(logical_pages=512)
        physical = device.flash.geometry.total_pages
        assert physical >= 512 * 1.1

    def test_non_ipa_variant(self):
        device = emulator_device(logical_pages=64, ipa_capable=False)
        assert device.regions[0].ipa_mode is IPAMode.NONE


class TestOpenSSDDevice:
    def test_matches_board_characteristics(self):
        device = openssd_device(logical_pages=256)
        assert device.flash.geometry.cell_type is CellType.MLC
        assert device.serialize_io  # no NCQ (Appendix D)

    def test_pslc_gets_double_blocks(self):
        odd = openssd_device(logical_pages=256, mode=IPAMode.ODD_MLC)
        pslc = openssd_device(logical_pages=256, mode=IPAMode.PSLC)
        assert (pslc.flash.geometry.total_blocks
                > odd.flash.geometry.total_blocks)


def make_device(backend, logical_pages, **config):
    """A backend by name: ``open_device`` over a ``SessionConfig``."""
    return open_device(SessionConfig(
        backend=backend, logical_pages=logical_pages, **config
    ))


class TestBackendFactories:
    def test_blockssd_mirrors_emulator_flash(self):
        device = blockssd_device(logical_pages=256)
        assert isinstance(device, BlockSSD)
        assert device.logical_pages == 256
        assert device.cell_type is CellType.SLC

    def test_sharded_rounds_capacity_up_to_shard_multiple(self):
        device = sharded_device(logical_pages=250, shards=4)
        assert isinstance(device, ShardedDevice)
        assert device.shard_count == 4
        assert device.logical_pages == 252  # ceil(250/4) * 4
        assert device.logical_pages % 4 == 0

    def test_sharded_rejects_nonpositive_shards(self):
        with pytest.raises(ReproError):
            sharded_device(logical_pages=64, shards=0)

    def test_make_device_dispatches_every_backend(self):
        for backend in BACKENDS:
            device = make_device(backend, 256)
            assert device.logical_pages >= 256

    def test_make_device_openssd_variants(self):
        noftl = make_device("noftl", 256, platform="openssd")
        assert noftl.cell_type is CellType.MLC
        ssd = make_device("blockssd", 256, platform="openssd")
        assert ssd.cell_type is CellType.MLC

    def test_make_device_rejects_sharded_on_openssd(self):
        with pytest.raises(ReproError):
            make_device("sharded", 256, platform="openssd")

    def test_make_device_rejects_unknown_backend(self):
        with pytest.raises(ReproError):
            make_device("floppy", 256)

    def test_engine_runs_on_every_backend(self):
        for backend in BACKENDS:
            device = make_device(backend, 400, shards=2)
            engine = build_engine(device, buffer_pages=400)
            workload = TPCB(TPCBConfig(accounts_per_branch=200))
            driver = load_scaled(engine, workload, buffer_fraction=0.5)
            result = driver.run(50)
            assert result.transactions == 50
            assert result.device["host_writes"] >= 0


class TestBuildEngine:
    def test_defaults(self):
        device = emulator_device(logical_pages=128)
        engine = build_engine(device)
        assert engine.config.buffer_pages == 64
        assert engine.config.eviction == "eager"

    def test_scheme_passthrough(self):
        device = emulator_device(logical_pages=128)
        engine = build_engine(device, scheme=NxMScheme(3, 7), eviction="non-eager")
        assert engine.ipa.scheme == NxMScheme(3, 7)
        assert engine.config.dirty_threshold == 0.75


class TestLoadScaled:
    def test_buffer_sized_to_fraction_of_loaded_db(self):
        device = emulator_device(logical_pages=400, chips=4)
        engine = build_engine(device, buffer_pages=400)
        workload = TPCB(TPCBConfig(accounts_per_branch=4000))
        driver = load_scaled(engine, workload, buffer_fraction=0.5)
        pages = engine.loaded_pages()
        assert pages > 50
        assert engine.pool.capacity == int(pages * 0.5)
        # measurement counters were reset after the load
        assert engine.device.stats.host_writes == 0
        result = driver.run(100)
        assert result.transactions == 100

    def test_minimum_buffer_enforced(self):
        device = emulator_device(logical_pages=400, chips=4)
        engine = build_engine(device, buffer_pages=400)
        workload = TPCB(TPCBConfig(accounts_per_branch=200))
        load_scaled(engine, workload, buffer_fraction=0.01)
        assert engine.pool.capacity >= 8
