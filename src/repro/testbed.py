"""Testbed factories: evaluation platforms and storage backends.

* :func:`emulator_device` — the real-time flash emulator of Section 8.1:
  16 SLC chips, 10% over-provisioning, page-level mapping, full chip
  parallelism.
* :func:`openssd_device` — the OpenSSD Jasmine board: MLC flash, one
  host command at a time (no NCQ, Appendix D), regions in ``pSLC`` or
  ``odd-MLC`` mode.
* :func:`blockssd_device` — a conventional black-box SSD with the
  retrofitted ``write_delta`` command (paper Section 7).
* :func:`sharded_device` — K independent NoFTL controllers behind one
  striped logical space (the scale-out backend).
* :func:`build_engine` / :func:`load_scaled` — an engine over a device
  you built, and the buffer-fraction protocol every benchmark table
  uses ("buffer size X% of the initial DB-size").

Backend selection *by name* lives in :func:`repro.session.open_device`,
and :func:`repro.session.open_session` builds device and engine in one
call.  Every factory returns a :class:`~repro.ftl.device.FlashDevice`; the
engine and drivers never see a concrete controller class, which is what
turns each benchmark into a backend-comparison harness.
"""

from __future__ import annotations

import math

from .core.scheme import NxMScheme, SCHEME_OFF
from .errors import ReproError
from .flash.constants import CellType
from .flash.geometry import FlashGeometry
from .flash.memory import FlashMemory
from .ftl.blockdev import BlockSSD
from .ftl.device import FlashDevice
from .ftl.noftl import single_region_device
from .ftl.region import IPAMode
from .ftl.sharded import ShardedDevice
from .storage.engine import EngineConfig, StorageEngine
from .workloads.base import Driver, Workload

#: Storage backends selectable by name (CLI ``--backend``).
BACKENDS = ("noftl", "blockssd", "sharded")

#: Smallest buffer pool the factories size an engine to.
MIN_BUFFER_PAGES = 8


def _geometry_for(
    logical_pages: int,
    chips: int,
    page_size: int,
    pages_per_block: int,
    cell_type: CellType,
    overprovisioning: float,
    pslc: bool,
) -> FlashGeometry:
    """Smallest geometry hosting ``logical_pages`` plus OP and GC reserve."""
    usable_per_block = math.ceil(pages_per_block / 2) if pslc else pages_per_block
    physical_pages = math.ceil(logical_pages * (1.0 + overprovisioning))
    blocks = math.ceil(physical_pages / usable_per_block) + 2 * chips + chips
    blocks_per_chip = math.ceil(blocks / chips)
    return FlashGeometry(
        chips=chips,
        blocks_per_chip=blocks_per_chip,
        pages_per_block=pages_per_block,
        page_size=page_size,
        oob_size=128,
        cell_type=cell_type,
    )


def emulator_device(
    logical_pages: int,
    ipa_capable: bool = True,
    chips: int = 16,
    page_size: int = 4096,
    pages_per_block: int = 64,
    overprovisioning: float = 0.10,
    telemetry=None,
) -> FlashDevice:
    """The Section 8.1 flash emulator: 16 SLC chips, 10% OP."""
    geometry = _geometry_for(
        logical_pages, chips, page_size, pages_per_block,
        CellType.SLC, overprovisioning, pslc=False,
    )
    mode = IPAMode.NATIVE if ipa_capable else IPAMode.NONE
    return single_region_device(
        FlashMemory(geometry),
        logical_pages=logical_pages,
        ipa_mode=mode,
        overprovisioning=overprovisioning,
        telemetry=telemetry,
    )


def openssd_device(
    logical_pages: int,
    mode: IPAMode = IPAMode.ODD_MLC,
    chips: int = 8,
    page_size: int = 4096,
    pages_per_block: int = 64,
    overprovisioning: float = 0.10,
    telemetry=None,
) -> FlashDevice:
    """The OpenSSD Jasmine board: MLC flash, serialized host I/O."""
    geometry = _geometry_for(
        logical_pages, chips, page_size, pages_per_block,
        CellType.MLC, overprovisioning, pslc=(mode is IPAMode.PSLC),
    )
    return single_region_device(
        FlashMemory(geometry),
        logical_pages=logical_pages,
        ipa_mode=mode,
        overprovisioning=overprovisioning,
        serialize_io=True,
        telemetry=telemetry,
    )


def blockssd_device(
    logical_pages: int,
    cell_type: CellType = CellType.SLC,
    mode: IPAMode | None = None,
    chips: int = 16,
    page_size: int = 4096,
    pages_per_block: int = 64,
    overprovisioning: float = 0.10,
    serialize_io: bool = False,
    telemetry=None,
) -> FlashDevice:
    """A conventional black-box SSD with retrofitted delta-writes (§7).

    Defaults mirror the emulator platform (SLC, 16 chips); pass
    ``cell_type=CellType.MLC`` with ``mode=IPAMode.ODD_MLC`` for the
    configuration where the device must absorb impossible appends as
    internal read-modify-writes.
    """
    geometry = _geometry_for(
        logical_pages, chips, page_size, pages_per_block,
        cell_type, overprovisioning, pslc=(mode is IPAMode.PSLC),
    )
    return BlockSSD(
        FlashMemory(geometry),
        capacity_pages=logical_pages,
        ipa_mode=mode,
        overprovisioning=overprovisioning,
        serialize_io=serialize_io,
        telemetry=telemetry,
    )


def sharded_device(
    logical_pages: int,
    shards: int = 4,
    ipa_capable: bool = True,
    chips_per_shard: int = 4,
    page_size: int = 4096,
    pages_per_block: int = 64,
    overprovisioning: float = 0.10,
    telemetry=None,
) -> FlashDevice:
    """K independent NoFTL controllers behind one striped logical space.

    Each shard owns its own SLC flash array (``chips_per_shard`` chips),
    regions and GC; logical pages stripe round-robin across shards.  The
    requested page count is rounded up to a multiple of ``shards``.
    """
    if shards < 1:
        raise ReproError(f"shards must be >= 1, got {shards}")
    per_shard = math.ceil(logical_pages / shards)
    children = [
        emulator_device(
            per_shard,
            ipa_capable=ipa_capable,
            chips=chips_per_shard,
            page_size=page_size,
            pages_per_block=pages_per_block,
            overprovisioning=overprovisioning,
        )
        for _ in range(shards)
    ]
    return ShardedDevice(children, telemetry=telemetry)


def build_engine(
    device: FlashDevice,
    scheme: NxMScheme = SCHEME_OFF,
    buffer_pages: int | None = None,
    eviction: str = "eager",
    telemetry=None,
    clock=None,
    **config_kwargs,
) -> StorageEngine:
    """An engine over ``device``; buffer defaults to half the device.

    Pass a :class:`~repro.telemetry.Telemetry` instance to instrument
    the whole stack (flash array, NoFTL, IPA manager, buffer pool), and
    a :class:`~repro.storage.clock.Clock` to run the engine under an
    external event loop (``None`` keeps the standalone scalar clock).
    Further keyword arguments go to
    :class:`~repro.storage.engine.EngineConfig` verbatim.
    """
    if buffer_pages is None:
        buffer_pages = max(MIN_BUFFER_PAGES, device.logical_pages // 2)
    config = EngineConfig(
        buffer_pages=buffer_pages, scheme=scheme, eviction=eviction,
        **config_kwargs,
    )
    return StorageEngine(device, config, telemetry=telemetry, clock=clock)


def load_scaled(
    engine: StorageEngine,
    workload: Workload,
    buffer_fraction: float,
    seed: int = 7,
) -> Driver:
    """Load a workload, then size the buffer to a fraction of the DB.

    Implements the paper's measurement protocol: databases are loaded
    first, then the DBMS buffer is set to ``buffer_fraction`` of the
    *initial* DB size (Section 8.2's 10%-90% sweeps).
    """
    driver = Driver(engine, workload, seed=seed)
    driver.load()
    target = max(MIN_BUFFER_PAGES, int(engine.loaded_pages() * buffer_fraction))
    engine.pool.resize(target, engine.clock)
    engine.flush_all()
    driver._reset_measurements()
    return driver
