"""One-call construction of an experiment stack: ``open_session``.

Every harness in the repo — the CLI commands, the benchmark tables,
the load tests, the crash matrix — needs the same three objects wired
together: a :class:`~repro.ftl.device.FlashDevice` (one of the
evaluation backends), a :class:`~repro.storage.engine.StorageEngine` on
top of it, and optionally a :class:`~repro.telemetry.Telemetry`
instrument spanning both.  This module does that from one typed
configuration record:

    from repro import SessionConfig, open_session

    session = open_session(SessionConfig(backend="sharded", shards=4,
                                         scheme=NxMScheme(2, 4)))
    session.engine.begin()          # ... or:
    session = open_session(backend="noftl", logical_pages=512)

:class:`SessionConfig` captures *everything* that selects an
experimental setup — backend, platform, shard count, flash geometry,
[N x M] scheme, buffer sizing, eviction policy, telemetry, clock, seed —
so a config value is a complete, comparable description of a run.

Construction has one function per job: :func:`open_device` builds the
backend a config names, and :func:`open_session` puts an engine over it.
Stacks no config describes (several regions, a hand-picked geometry)
are built from the low-level constructors: ``single_region_device`` or
``NoFTL.create``, ``BlockSSD``, ``ShardedDevice`` and
``StorageEngine(device, EngineConfig(...))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

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
from .testbed import MIN_BUFFER_PAGES

__all__ = [
    "BACKENDS", "PLATFORMS", "Session", "SessionConfig", "backend_label",
    "open_device", "open_session",
]

#: Storage backends selectable by name (CLI ``--backend``).
BACKENDS = ("noftl", "blockssd", "sharded")

#: Evaluation platforms selectable by name (paper Section 8.1).
PLATFORMS = ("emulator", "openssd")


@dataclass(frozen=True)
class SessionConfig:
    """A complete description of one experimental stack.

    The device half selects a backend, its platform and its flash
    geometry; the engine half sizes the buffer pool and picks the IPA
    scheme; the instrumentation half carries the shared telemetry/clock
    handles.  ``engine`` holds any further
    :class:`~repro.storage.engine.EngineConfig` keyword arguments
    (``log_capacity_bytes``, ``page_checksum``, ...) verbatim.
    """

    # --- device ------------------------------------------------------
    backend: str = "noftl"
    logical_pages: int = 1000
    #: ``emulator``: the Section 8.1 flash emulator (SLC, full chip
    #: parallelism); ``openssd``: the Jasmine board (MLC, one host
    #: command at a time, Appendix D).
    platform: str = "emulator"
    #: IPA mode of the openssd platform (ignored on the emulator).
    mode: IPAMode = IPAMode.ODD_MLC
    #: Controller count of the sharded backend (ignored otherwise).
    shards: int = 4
    #: Chips per controller; ``None`` picks the platform's count: 16 on
    #: the emulator, 8 on openssd, 4 per shard of the sharded backend.
    chips: int | None = None
    page_size: int = 4096
    pages_per_block: int = 64
    overprovisioning: float = 0.10
    #: Whether NoFTL regions on the emulator accept in-place appends
    #: (the black-box SSD always advertises its native mode).
    ipa_capable: bool = True
    # --- engine ------------------------------------------------------
    scheme: NxMScheme = SCHEME_OFF
    #: Buffer pool frames; ``None`` defaults to half the device.
    buffer_pages: int | None = None
    eviction: str = "eager"
    #: Extra ``EngineConfig`` keyword arguments, passed through.
    engine: dict[str, Any] = field(default_factory=dict)
    # --- instrumentation / determinism -------------------------------
    telemetry: Any = None
    clock: Any = None
    #: Workload seed; carried so a config fully identifies a run (the
    #: constructors themselves draw no randomness).
    seed: int = 7

    def __hash__(self) -> int:  # ``engine`` (a dict) opts out of eq-hash
        return hash((self.backend, self.platform, self.logical_pages,
                     self.shards, self.scheme, self.seed))

    def validate(self) -> None:
        """Reject configurations no backend can be built from (ReproError)."""
        if self.backend not in BACKENDS:
            raise ReproError(
                f"unknown backend {self.backend!r}; choose from {', '.join(BACKENDS)}"
            )
        if self.platform not in PLATFORMS:
            raise ReproError(
                f"unknown platform {self.platform!r}; choose from {', '.join(PLATFORMS)}"
            )
        if self.backend == "sharded" and self.platform == "openssd":
            raise ReproError("the sharded backend runs on the emulator platform only")
        if self.logical_pages < 1:
            raise ReproError("need at least one logical page")
        for name in ("shards", "chips", "page_size", "pages_per_block"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ReproError(f"{name} must be >= 1, got {value}")
        if self.eviction not in ("eager", "non-eager"):
            raise ReproError(
                f"eviction must be 'eager' or 'non-eager', got {self.eviction!r}"
            )

    def with_overrides(self, **overrides: Any) -> "SessionConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides) if overrides else self


@dataclass
class Session:
    """One constructed stack: the config and the objects it produced."""

    config: SessionConfig
    device: FlashDevice
    engine: StorageEngine

    @property
    def telemetry(self) -> Any:
        """The telemetry handle the stack was instrumented with (or None)."""
        return self.config.telemetry


def backend_label(config: Any) -> str:
    """The backend name as report titles print it (``sharded[K]``), for
    anything carrying ``backend`` and ``shards`` (configs, CLI args)."""
    if config.backend == "sharded":
        return f"sharded[{config.shards}]"
    return config.backend


def _geometry_for(
    config: SessionConfig, logical_pages: int, cell_type: CellType, pslc: bool
) -> FlashGeometry:
    """Smallest geometry hosting ``logical_pages`` plus OP and GC reserve."""
    chips = config.chips
    if chips is None:
        if config.backend == "sharded":
            chips = 4
        else:
            chips = 8 if config.platform == "openssd" else 16
    per_block = config.pages_per_block
    usable_per_block = math.ceil(per_block / 2) if pslc else per_block
    physical_pages = math.ceil(logical_pages * (1.0 + config.overprovisioning))
    blocks = math.ceil(physical_pages / usable_per_block) + 3 * chips
    return FlashGeometry(
        chips=chips,
        blocks_per_chip=math.ceil(blocks / chips),
        pages_per_block=per_block,
        page_size=config.page_size,
        oob_size=128,
        cell_type=cell_type,
    )


def _controller(config: SessionConfig, logical_pages: int) -> FlashDevice:
    """One NoFTL or black-box controller over freshly sized flash."""
    openssd = config.platform == "openssd"
    if openssd:
        mode = config.mode
    elif config.ipa_capable or config.backend == "blockssd":
        mode = IPAMode.NATIVE
    else:
        mode = IPAMode.NONE
    flash = FlashMemory(_geometry_for(
        config, logical_pages, CellType.MLC if openssd else CellType.SLC,
        pslc=mode is IPAMode.PSLC,
    ))
    if config.backend == "blockssd":
        return BlockSSD(
            flash, capacity_pages=logical_pages, ipa_mode=mode,
            overprovisioning=config.overprovisioning, serialize_io=openssd,
        )
    return single_region_device(
        flash, logical_pages=logical_pages, ipa_mode=mode,
        overprovisioning=config.overprovisioning, serialize_io=openssd,
    )


def open_device(config: SessionConfig) -> FlashDevice:
    """Build just the storage backend a config describes.

    This is the single backend-by-name dispatch point: ``noftl``
    honours the platform choice (emulator or openssd), ``blockssd``
    mirrors the platform's flash technology behind a black-box
    interface, ``sharded`` stripes K emulator-style NoFTL controllers
    over one logical space, rounding the page count up to a multiple of
    K.  A config carrying ``telemetry`` attaches it here, once, after
    the device is built.
    """
    config.validate()
    if config.backend == "sharded":
        per_shard = math.ceil(config.logical_pages / config.shards)
        device = ShardedDevice(
            [_controller(config, per_shard) for _ in range(config.shards)]
        )
    else:
        device = _controller(config, config.logical_pages)
    if config.telemetry is not None:
        config.telemetry.attach_device(device)
    return device


def open_session(config: SessionConfig | None = None, **overrides: Any) -> Session:
    """Build the full stack a config describes; the one-call entry.

    Accepts either a ready :class:`SessionConfig`, keyword overrides on
    top of one, or bare keywords (``open_session(backend="sharded")``)
    which construct the config in place.
    """
    if config is None:
        config = SessionConfig(**overrides)
    else:
        config = config.with_overrides(**overrides)
    device = open_device(config)
    buffer_pages = config.buffer_pages
    if buffer_pages is None:
        buffer_pages = max(MIN_BUFFER_PAGES, device.logical_pages // 2)
    engine = StorageEngine(
        device,
        EngineConfig(
            buffer_pages=buffer_pages, scheme=config.scheme,
            eviction=config.eviction, **config.engine,
        ),
        telemetry=config.telemetry,
        clock=config.clock,
    )
    return Session(config=config, device=device, engine=engine)
