"""One-call construction of an experiment stack: ``open_session``.

Every harness in the repo — the CLI commands, the benchmark tables,
the load tests, the crash matrix — needs the same three objects wired
together: a :class:`~repro.ftl.device.FlashDevice` (one of the testbed
backends), a :class:`~repro.storage.engine.StorageEngine` on top of it,
and optionally a :class:`~repro.telemetry.Telemetry` instrument spanning
both.  This module does that from one typed configuration record:

    from repro import SessionConfig, open_session

    session = open_session(SessionConfig(backend="sharded", shards=4,
                                         scheme=NxMScheme(2, 4)))
    session.engine.begin()          # ... or:
    session = open_session(backend="noftl", logical_pages=512)

:class:`SessionConfig` captures *everything* that selects an
experimental setup — backend, platform, shard count, [N x M] scheme,
buffer sizing, eviction policy, telemetry, clock, seed — so a config
value is a complete, comparable description of a run.

Construction has one function per job: :func:`open_device` picks a
backend by name, :func:`repro.testbed.build_engine` puts an engine over
a device the caller built (the per-backend ``*_device`` factories), and
:func:`open_session` does both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .core.scheme import NxMScheme, SCHEME_OFF
from .errors import ReproError
from .flash.constants import CellType
from .ftl.device import FlashDevice
from .ftl.region import IPAMode
from .storage.engine import StorageEngine
from .testbed import (
    BACKENDS,
    blockssd_device,
    build_engine,
    emulator_device,
    openssd_device,
    sharded_device,
)

__all__ = [
    "PLATFORMS", "Session", "SessionConfig", "backend_label", "open_device",
    "open_session",
]

#: Evaluation platforms selectable by name (paper Section 8.1).
PLATFORMS = ("emulator", "openssd")


@dataclass(frozen=True)
class SessionConfig:
    """A complete description of one experimental stack.

    The device half selects a testbed backend and its geometry knobs;
    the engine half sizes the buffer pool and picks the IPA scheme; the
    instrumentation half carries the shared telemetry/clock handles.
    ``engine`` holds any further :class:`~repro.storage.engine.EngineConfig`
    keyword arguments (``log_capacity_bytes``, ``page_checksum``, ...)
    verbatim.
    """

    # --- device ------------------------------------------------------
    backend: str = "noftl"
    logical_pages: int = 1000
    platform: str = "emulator"
    #: IPA mode of the openssd platform (ignored on the emulator).
    mode: IPAMode = IPAMode.ODD_MLC
    #: Controller count of the sharded backend (ignored otherwise).
    shards: int = 4
    overprovisioning: float = 0.10
    #: Whether emulator-style regions accept in-place appends.
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
        """Reject configurations no factory can build (ReproError)."""
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
        if self.shards < 1:
            raise ReproError(f"shards must be >= 1, got {self.shards}")
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


def open_device(config: SessionConfig) -> FlashDevice:
    """Build just the storage backend a config describes.

    This is the single backend-by-name dispatch point: ``noftl``
    honours the platform choice (emulator or openssd), ``blockssd``
    mirrors the platform's flash technology behind a black-box
    interface, ``sharded`` stripes over emulator-style shards.
    """
    config.validate()
    if config.backend == "noftl":
        if config.platform == "openssd":
            return openssd_device(
                config.logical_pages, mode=config.mode,
                overprovisioning=config.overprovisioning,
                telemetry=config.telemetry,
            )
        return emulator_device(
            config.logical_pages, ipa_capable=config.ipa_capable,
            overprovisioning=config.overprovisioning,
            telemetry=config.telemetry,
        )
    if config.backend == "blockssd":
        if config.platform == "openssd":
            return blockssd_device(
                config.logical_pages, cell_type=CellType.MLC, mode=config.mode,
                chips=8, overprovisioning=config.overprovisioning,
                serialize_io=True, telemetry=config.telemetry,
            )
        return blockssd_device(
            config.logical_pages, overprovisioning=config.overprovisioning,
            telemetry=config.telemetry,
        )
    # validate() narrowed the backend; only "sharded" remains.
    return sharded_device(
        config.logical_pages, shards=config.shards,
        ipa_capable=config.ipa_capable,
        overprovisioning=config.overprovisioning,
        telemetry=config.telemetry,
    )


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
    config.validate()
    device = open_device(config)
    engine = build_engine(
        device, scheme=config.scheme, buffer_pages=config.buffer_pages,
        eviction=config.eviction, telemetry=config.telemetry,
        clock=config.clock, **config.engine,
    )
    return Session(config=config, device=device, engine=engine)
