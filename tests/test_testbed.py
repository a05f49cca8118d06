"""The evaluation platforms and backends ``open_device`` builds, and the
buffer-fraction protocol (``repro.testbed.load_scaled``)."""

import pytest

from repro.core import NxMScheme
from repro.errors import ReproError
from repro.flash.constants import CellType
from repro.ftl import BlockSSD, ShardedDevice
from repro.ftl.region import IPAMode
from repro.session import BACKENDS, SessionConfig, open_device, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig


def make_device(backend, logical_pages, **config):
    """A backend by name: ``open_device`` over a ``SessionConfig``."""
    return open_device(SessionConfig(
        backend=backend, logical_pages=logical_pages, **config
    ))


class TestEmulatorDevice:
    def test_matches_paper_configuration(self):
        device = make_device("noftl", 512)
        assert device.flash.geometry.chips == 16
        assert device.flash.geometry.cell_type is CellType.SLC
        assert device.regions[0].config.overprovisioning == pytest.approx(0.10)
        assert device.regions[0].ipa_mode is IPAMode.NATIVE
        assert not device.serialize_io

    def test_capacity_covers_logical_plus_op(self):
        device = make_device("noftl", 512)
        physical = device.flash.geometry.total_pages
        assert physical >= 512 * 1.1

    def test_non_ipa_variant(self):
        device = make_device("noftl", 64, ipa_capable=False)
        assert device.regions[0].ipa_mode is IPAMode.NONE


class TestOpenSSDDevice:
    def test_matches_board_characteristics(self):
        device = make_device("noftl", 256, platform="openssd")
        assert device.flash.geometry.cell_type is CellType.MLC
        assert device.serialize_io  # no NCQ (Appendix D)

    def test_pslc_gets_double_blocks(self):
        odd = make_device(
            "noftl", 256, platform="openssd", mode=IPAMode.ODD_MLC
        )
        pslc = make_device(
            "noftl", 256, platform="openssd", mode=IPAMode.PSLC
        )
        assert (pslc.flash.geometry.total_blocks
                > odd.flash.geometry.total_blocks)


class TestBackendFactories:
    def test_blockssd_mirrors_emulator_flash(self):
        device = make_device("blockssd", 256)
        assert isinstance(device, BlockSSD)
        assert device.logical_pages == 256
        assert device.cell_type is CellType.SLC

    def test_sharded_rounds_capacity_up_to_shard_multiple(self):
        device = make_device("sharded", 250, shards=4)
        assert isinstance(device, ShardedDevice)
        assert device.shard_count == 4
        assert device.logical_pages == 252  # ceil(250/4) * 4
        assert device.logical_pages % 4 == 0

    def test_sharded_rejects_nonpositive_shards(self):
        with pytest.raises(ReproError):
            make_device("sharded", 64, shards=0)

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
            engine = open_session(SessionConfig(
                backend=backend, logical_pages=400, shards=2, buffer_pages=400,
            )).engine
            workload = TPCB(TPCBConfig(accounts_per_branch=200))
            driver = load_scaled(engine, workload, buffer_fraction=0.5)
            result = driver.run(50)
            assert result.transactions == 50
            assert result.device["host_writes"] >= 0


class TestBuildEngine:
    """The engine half of ``open_session``."""

    def test_defaults(self):
        engine = open_session(SessionConfig(logical_pages=128)).engine
        assert engine.config.buffer_pages == 64
        assert engine.config.eviction == "eager"

    def test_scheme_passthrough(self):
        engine = open_session(SessionConfig(
            logical_pages=128, scheme=NxMScheme(3, 7), eviction="non-eager",
        )).engine
        assert engine.ipa.scheme == NxMScheme(3, 7)
        assert engine.config.dirty_threshold == 0.75


class TestLoadScaled:
    def test_buffer_sized_to_fraction_of_loaded_db(self):
        engine = open_session(SessionConfig(
            logical_pages=400, chips=4, buffer_pages=400,
        )).engine
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
        engine = open_session(SessionConfig(
            logical_pages=400, chips=4, buffer_pages=400,
        )).engine
        workload = TPCB(TPCBConfig(accounts_per_branch=200))
        load_scaled(engine, workload, buffer_fraction=0.01)
        assert engine.pool.capacity >= 8

    @pytest.mark.parametrize("fraction", [-0.5, 0.0, 1.5])
    def test_rejects_fraction_outside_unit_interval(self, fraction):
        engine = open_session(SessionConfig(logical_pages=64)).engine
        workload = TPCB(TPCBConfig(accounts_per_branch=200))
        with pytest.raises(ReproError, match="buffer fraction"):
            load_scaled(engine, workload, buffer_fraction=fraction)
        assert engine.loaded_pages() == 0  # rejected before the load
