"""The unified session-construction API (repro.session).

``SessionConfig`` + ``open_session`` is the one construction path every
harness uses; these tests pin its behaviour, that it is exactly
``open_device`` followed by ``StorageEngine(device, EngineConfig(...))``,
and the flash geometry each configuration builds.
"""

import pytest

from repro import Session, SessionConfig, open_device, open_session
from repro.core import NxMScheme
from repro.errors import ReproError
from repro.ftl.blockdev import BlockSSD
from repro.ftl.sharded import ShardedDevice
from repro.ftl.region import IPAMode
from repro.storage.engine import EngineConfig, StorageEngine
from repro.telemetry import Telemetry
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig


def test_open_session_defaults():
    session = open_session(SessionConfig(logical_pages=128))
    assert isinstance(session, Session)
    assert isinstance(session.engine, StorageEngine)
    assert session.device.logical_pages == 128
    assert session.engine.device is session.device
    # Buffer defaults to half the device.
    assert session.engine.pool.capacity == max(8, 128 // 2)
    assert session.telemetry is None


def test_open_session_bare_keywords():
    session = open_session(backend="blockssd", logical_pages=64)
    assert isinstance(session.device, BlockSSD)


def test_open_session_overrides_config():
    base = SessionConfig(logical_pages=64)
    session = open_session(base, backend="sharded", shards=2)
    assert isinstance(session.device, ShardedDevice)
    assert session.config.logical_pages == 64
    # The original config is untouched (frozen dataclass semantics).
    assert base.backend == "noftl"


def test_session_engine_kwargs_pass_through():
    session = open_session(SessionConfig(
        logical_pages=64, scheme=NxMScheme(2, 4),
        buffer_pages=16, eviction="non-eager",
        engine=dict(log_capacity_bytes=12345, page_checksum=True),
    ))
    assert session.engine.config.log_capacity_bytes == 12345
    assert session.engine.config.page_checksum is True
    assert session.engine.pool.capacity == 16
    assert session.engine.config.scheme == NxMScheme(2, 4)


@pytest.mark.parametrize("overrides,message", [
    (dict(backend="nvme"), "unknown backend"),
    (dict(platform="fpga"), "unknown platform"),
    (dict(backend="sharded", platform="openssd"), "emulator platform only"),
    (dict(logical_pages=0), "logical page"),
    (dict(backend="sharded", shards=0), "shards"),
    (dict(eviction="random"), "eviction"),
    (dict(chips=0), "chips"),
    (dict(page_size=0), "page_size"),
    (dict(pages_per_block=-1), "pages_per_block"),
])
def test_validate_rejects(overrides, message):
    with pytest.raises(ReproError, match=message):
        open_session(SessionConfig(**overrides))


def test_telemetry_threads_through_device_and_engine():
    telemetry = Telemetry()
    session = open_session(SessionConfig(logical_pages=64, telemetry=telemetry))
    assert session.telemetry is telemetry
    assert session.engine.telemetry is telemetry


@pytest.mark.parametrize("backend,counter", [
    ("noftl", "device_host_reads"),
    ("blockssd", "blockssd_reads"),
    ("sharded", "shard0_device_host_reads"),
])
def test_open_device_attaches_telemetry_on_every_backend(backend, counter):
    """``open_device`` is the one place a device gets its telemetry."""
    telemetry = Telemetry()
    device = open_device(SessionConfig(
        backend=backend, logical_pages=64, telemetry=telemetry,
    ))
    assert device.telemetry is telemetry
    assert telemetry.metrics.get(counter) is not None
    device.write(0, bytes(device.page_size), 0.0)
    device.read(0, 0.0)
    assert telemetry.metrics.get(counter).value == 1


def test_open_session_is_open_device_plus_engine():
    """``open_session`` = ``open_device`` + an engine over it."""
    config = SessionConfig(
        logical_pages=64, scheme=NxMScheme(2, 4), eviction="non-eager",
        engine=dict(log_capacity_bytes=777),
    )
    session = open_session(config)
    engine = StorageEngine(open_device(config), EngineConfig(
        buffer_pages=32, scheme=NxMScheme(2, 4), eviction="non-eager",
        log_capacity_bytes=777,
    ))
    assert type(engine.device) is type(session.device)
    assert engine.config == session.engine.config
    assert engine.config.log_capacity_bytes == 777
    assert engine.pool.capacity == max(8, 64 // 2)


def test_loaded_pages_accessor_matches_cursors():
    session = open_session(SessionConfig(
        logical_pages=400, scheme=NxMScheme(2, 4), buffer_pages=400,
    ))
    load_scaled(
        session.engine, TPCB(TPCBConfig(accounts_per_branch=1000)),
        buffer_fraction=0.5,
    )
    loaded = session.engine.loaded_pages()
    assert loaded > 0
    # The accessor equals the per-region cursor arithmetic it replaced.
    assert loaded == sum(
        session.engine._region_cursors[region.name] - region.lpn_start
        for region in session.device.regions
    )


#: Every configuration the retired per-backend factories were called
#: with, as a ``SessionConfig``, and what it built before they were
#: folded into ``open_device``: the flash geometry of each controller
#: (chips, blocks_per_chip, pages_per_block, page_size, oob_size,
#: cell_type), each region's (ipa_mode, lpn_start, lpn_end),
#: ``serialize_io`` and ``logical_pages``.  The MLC black-box SSD that
#: two crash tests build without serialized I/O is not among them: no
#: platform describes it, so those tests use ``BlockSSD`` directly.
GEOMETRY_CASES = [
    ("noftl-emulator", dict(logical_pages=1000),
     (16, 5, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 1000)], False, 1000),
    ("noftl-openssd-odd-mlc", dict(logical_pages=1000, platform='openssd'),
     (8, 6, 64, 4096, 128, 'MLC'), [('ODD_MLC', 0, 1000)], True, 1000),
    ("noftl-openssd-pslc", dict(logical_pages=1000, platform='openssd', mode=IPAMode.PSLC),
     (8, 8, 64, 4096, 128, 'MLC'), [('PSLC', 0, 1000)], True, 1000),
    ("blockssd-emulator", dict(backend='blockssd', logical_pages=1000),
     (16, 5, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 1000)], False, 1000),
    ("blockssd-openssd-odd-mlc", dict(backend='blockssd', logical_pages=2600, platform='openssd'),
     (8, 9, 64, 4096, 128, 'MLC'), [('ODD_MLC', 0, 2600)], True, 2600),
    ("blockssd-openssd-pslc", dict(backend='blockssd', logical_pages=1000, platform='openssd', mode=IPAMode.PSLC),
     (8, 8, 64, 4096, 128, 'MLC'), [('PSLC', 0, 1000)], True, 1000),
    ("sharded-4", dict(backend='sharded', logical_pages=128),
     (4, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 128)], False, 128),
    ("sharded-3", dict(backend='sharded', logical_pages=1000, shards=3),
     (4, 5, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 1002)], False, 1002),
    ("sharded-2-400", dict(backend='sharded', logical_pages=400, shards=2),
     (4, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 400)], False, 400),
    ("sharded-4-250", dict(backend='sharded', logical_pages=250),
     (4, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 252)], False, 252),
    ("noftl-no-ipa", dict(logical_pages=64, ipa_capable=False),
     (16, 4, 64, 4096, 128, 'SLC'), [('NONE', 0, 64)], False, 64),
    ("noftl-512", dict(logical_pages=512),
     (16, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 512)], False, 512),
    ("noftl-900", dict(logical_pages=900),
     (16, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 900)], False, 900),
    ("noftl-1600", dict(logical_pages=1600),
     (16, 5, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 1600)], False, 1600),
    ("noftl-128", dict(logical_pages=128),
     (16, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 128)], False, 128),
    ("noftl-32", dict(logical_pages=32),
     (16, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 32)], False, 32),
    ("noftl-16", dict(logical_pages=16),
     (16, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 16)], False, 16),
    ("noftl-8", dict(logical_pages=8),
     (16, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 8)], False, 8),
    ("openssd-256", dict(logical_pages=256, platform='openssd'),
     (8, 4, 64, 4096, 128, 'MLC'), [('ODD_MLC', 0, 256)], True, 256),
    ("openssd-256-pslc", dict(logical_pages=256, platform='openssd', mode=IPAMode.PSLC),
     (8, 5, 64, 4096, 128, 'MLC'), [('PSLC', 0, 256)], True, 256),
    ("openssd-400-chips4", dict(logical_pages=400, platform='openssd', chips=4),
     (4, 5, 64, 4096, 128, 'MLC'), [('ODD_MLC', 0, 400)], True, 400),
    ("blockssd-256", dict(backend='blockssd', logical_pages=256),
     (16, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 256)], False, 256),
    ("blockssd-400", dict(backend='blockssd', logical_pages=400),
     (16, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 400)], False, 400),
    ("crash-noftl", dict(logical_pages=128, chips=2, page_size=1024, pages_per_block=8),
     (2, 12, 8, 1024, 128, 'SLC'), [('NATIVE', 0, 128)], False, 128),
    ("crash-blockssd", dict(backend='blockssd', logical_pages=128, chips=2, page_size=1024, pages_per_block=8),
     (2, 12, 8, 1024, 128, 'SLC'), [('NATIVE', 0, 128)], False, 128),
    ("crash-sharded-2", dict(backend='sharded', logical_pages=128, shards=2, chips=2, page_size=1024, pages_per_block=8),
     (2, 8, 8, 1024, 128, 'SLC'), [('NATIVE', 0, 128)], False, 128),
    ("crash-sharded-4", dict(backend='sharded', logical_pages=128, chips=2, page_size=1024, pages_per_block=8),
     (2, 6, 8, 1024, 128, 'SLC'), [('NATIVE', 0, 128)], False, 128),
    ("chips2-64", dict(logical_pages=64, chips=2),
     (2, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 64)], False, 64),
    ("chips1-64", dict(logical_pages=64, chips=1),
     (1, 5, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 64)], False, 64),
    ("chips4-128", dict(logical_pages=128, chips=4),
     (4, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 128)], False, 128),
    ("chips4-200", dict(logical_pages=200, chips=4),
     (4, 4, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 200)], False, 200),
    ("chips4-300", dict(logical_pages=300, chips=4),
     (4, 5, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 300)], False, 300),
    ("chips4-400", dict(logical_pages=400, chips=4),
     (4, 5, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 400)], False, 400),
    ("chips4-900", dict(logical_pages=900, chips=4),
     (4, 7, 64, 4096, 128, 'SLC'), [('NATIVE', 0, 900)], False, 900),
    ("chips2-128-1k", dict(logical_pages=128, chips=2, page_size=1024),
     (2, 5, 64, 1024, 128, 'SLC'), [('NATIVE', 0, 128)], False, 128),
    ("chips2-4-1k", dict(logical_pages=4, chips=2, page_size=1024),
     (2, 4, 64, 1024, 128, 'SLC'), [('NATIVE', 0, 4)], False, 4),
    ("chips2-32-512", dict(logical_pages=32, chips=2, page_size=512),
     (2, 4, 64, 512, 128, 'SLC'), [('NATIVE', 0, 32)], False, 32),
    ("chips4-128-1k", dict(logical_pages=128, chips=4, page_size=1024),
     (4, 4, 64, 1024, 128, 'SLC'), [('NATIVE', 0, 128)], False, 128),
    ("chips4-256-1k", dict(logical_pages=256, chips=4, page_size=1024),
     (4, 5, 64, 1024, 128, 'SLC'), [('NATIVE', 0, 256)], False, 256),
    ("chips4-256-512", dict(logical_pages=256, chips=4, page_size=512),
     (4, 5, 64, 512, 128, 'SLC'), [('NATIVE', 0, 256)], False, 256),
    ("chips4-512-1k", dict(logical_pages=512, chips=4, page_size=1024),
     (4, 6, 64, 1024, 128, 'SLC'), [('NATIVE', 0, 512)], False, 512),
]


def _controllers(device):
    """The NoFTL controllers behind a device (one per shard)."""
    if isinstance(device, ShardedDevice):
        return device.shards
    if isinstance(device, BlockSSD):
        return [device.internal]
    return [device]


@pytest.mark.parametrize(
    "overrides,geometry,regions,serialize_io,logical_pages",
    [case[1:] for case in GEOMETRY_CASES],
    ids=[case[0] for case in GEOMETRY_CASES],
)
def test_open_device_geometry_pinned(
    overrides, geometry, regions, serialize_io, logical_pages
):
    device = open_device(SessionConfig(**overrides))
    for controller in _controllers(device):
        g = controller.flash.geometry
        assert (g.chips, g.blocks_per_chip, g.pages_per_block, g.page_size,
                g.oob_size, g.cell_type.name) == geometry
        assert controller.serialize_io is serialize_io
    assert [(r.ipa_mode.name, r.lpn_start, r.lpn_end)
            for r in device.regions] == regions
    assert device.logical_pages == logical_pages
