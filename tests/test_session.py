"""The unified session-construction API (repro.session).

``SessionConfig`` + ``open_session`` is the one construction path every
harness uses; these tests pin its behaviour and that it is exactly
``open_device`` followed by ``testbed.build_engine``.
"""

import pytest

from repro import Session, SessionConfig, open_device, open_session
from repro.core import NxMScheme
from repro.errors import ReproError
from repro.ftl.blockdev import BlockSSD
from repro.ftl.sharded import ShardedDevice
from repro.storage.engine import StorageEngine
from repro.telemetry import Telemetry
from repro.testbed import build_engine, load_scaled
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
])
def test_validate_rejects(overrides, message):
    with pytest.raises(ReproError, match=message):
        open_session(SessionConfig(**overrides))


def test_telemetry_threads_through_device_and_engine():
    telemetry = Telemetry()
    session = open_session(SessionConfig(logical_pages=64, telemetry=telemetry))
    assert session.telemetry is telemetry
    assert session.engine.telemetry is telemetry


def test_build_engine_wrapper_delegates():
    """``open_session`` wraps ``build_engine``: same engine as calling it."""
    config = SessionConfig(
        logical_pages=64, scheme=NxMScheme(2, 4), eviction="non-eager",
        engine=dict(log_capacity_bytes=777),
    )
    session = open_session(config)
    engine = build_engine(
        open_device(config), scheme=NxMScheme(2, 4), eviction="non-eager",
        log_capacity_bytes=777,
    )
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
