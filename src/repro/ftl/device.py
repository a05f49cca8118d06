"""The pluggable device layer: what the host stack requires of a device.

The paper's Section 7 argues the ``write_delta`` command is
device-independent — "delta-writes can be implemented on conventional
SSD and on Native Flash".  :class:`FlashDevice` captures that host
boundary as a structural protocol: everything above the device layer
(:class:`~repro.core.manager.IPAManager`,
:class:`~repro.storage.engine.StorageEngine`, the workloads and the CLI)
programs against this surface and never against a concrete
controller class.

Three backends conform:

* :class:`~repro.ftl.noftl.NoFTL` — native flash management inside the
  DBMS (the paper's primary platform);
* :class:`~repro.ftl.blockdev.BlockSSD` — a conventional black-box SSD
  with the retrofitted ``write_delta`` command (Section 7);
* :class:`~repro.ftl.sharded.ShardedDevice` — K independent controllers
  behind one logical address space (LPN striping), the scale-out
  configuration the host boundary unlocks.

The protocol is *structural* (:class:`typing.Protocol`), so conformance
needs no inheritance; ``isinstance(device, FlashDevice)`` checks the
surface at runtime via :func:`typing.runtime_checkable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence, runtime_checkable

from ..flash.constants import CellType
from .region import IPAMode, RegionConfig
from .stats import DERIVED_RATIOS, derived_ratio


@dataclass
class HostIO:
    """Result of one host command: payload (reads) and observed latency."""

    data: bytes | None
    latency_us: float


@dataclass(frozen=True)
class HostRegionView:
    """Host-visible region descriptor of a device.

    :class:`~repro.ftl.region.Region` (NoFTL's runtime region) exposes
    the same surface; backends without physical regions (BlockSSD, the
    sharded merger) publish these lightweight views instead, so the
    storage layer's placement logic works against any backend.
    """

    config: RegionConfig
    lpn_start: int

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def ipa_mode(self) -> IPAMode:
        return self.config.ipa_mode

    @property
    def lpn_end(self) -> int:
        """One past the last logical page of the region (exclusive)."""
        return self.lpn_start + self.config.logical_pages

    def contains(self, lpn: int) -> bool:
        """Whether a logical page number falls inside this region."""
        return self.lpn_start <= lpn < self.lpn_end


@runtime_checkable
class FlashDevice(Protocol):
    """The host-facing surface every storage backend provides.

    Commands take and return the same types as the original NoFTL
    implementation; ``now`` is the host's simulated clock so the device
    can model queueing behind busy chips.
    """

    # -- geometry / identity -------------------------------------------

    @property
    def page_size(self) -> int:
        """Bytes per logical page (the unit of read/write)."""
        ...

    @property
    def logical_pages(self) -> int:
        """Size of the logical address space in pages."""
        ...

    @property
    def oob_size(self) -> int:
        """Spare-area bytes available per page (ECC storage)."""
        ...

    @property
    def cell_type(self) -> CellType:
        """NAND cell technology of the underlying flash."""
        ...

    # -- regions (host-visible placement) ------------------------------

    @property
    def regions(self) -> Sequence:
        """Host-visible regions covering [0, logical_pages)."""
        ...

    def region_of(self, lpn: int):
        """The region hosting a logical page."""
        ...

    def region_named(self, name: str):
        """Look a region up by its declared name."""
        ...

    # -- host commands --------------------------------------------------

    def is_mapped(self, lpn: int) -> bool:
        """Whether the logical page has ever been written."""
        ...

    def read(self, lpn: int, now: float = 0.0) -> HostIO:
        """Read the raw stored image of a logical page."""
        ...

    def write(self, lpn: int, data: bytes, now: float = 0.0) -> HostIO:
        """Write a full logical page."""
        ...

    def can_write_delta(self, lpn: int, offset: int, length: int) -> bool:
        """Whether a delta of ``length`` bytes at ``offset`` can append in place."""
        ...

    def write_delta(self, lpn: int, offset: int, data: bytes, now: float = 0.0) -> HostIO:
        """The paper's delta-append command (Section 5 / Section 7)."""
        ...

    def read_oob(self, lpn: int) -> bytes:
        """Spare-area bytes of a logical page's current home."""
        ...

    def write_oob(self, lpn: int, data: bytes, offset: int = 0) -> None:
        """Append bytes (ECC codes) into a page's spare area."""
        ...

    def trim(self, lpn: int) -> None:
        """Deallocate a logical page; its flash cells become garbage."""
        ...

    # -- dispatch hooks (host-side scheduling) ---------------------------

    def occupancy(self) -> tuple[float, ...]:
        """Per-channel ``busy_until`` times, one entry per independent die.

        A channel whose entry is at or below the host's simulated clock
        can start a command immediately; entries in the future tell the
        scheduler when the die frees up.  Serialized devices (OpenSSD,
        no NCQ) report a single channel.
        """
        ...

    def channel_of(self, lpn: int, op: str = "read") -> int | None:
        """Best-effort channel hint: which die would serve this command.

        ``op`` is an ``OpKind`` value (``"read"``, ``"write"``, ``"delta"``).
        Reads and deltas target the page's current home; writes report where
        the allocator would most likely place the next page.  ``None`` means
        the device cannot predict (e.g. the page is unmapped) — the
        scheduler then treats the request as dispatchable on any free
        channel.  The hint is advisory: dispatching against a busy die
        is still correct, the command just queues behind it.
        """
        ...

    # -- stats / telemetry ----------------------------------------------

    def snapshot(self) -> dict:
        """Device counter summary; every backend returns the same keys."""
        ...

    def reset_stats(self) -> None:
        """Zero the device counters (run boundaries)."""
        ...

    def bind_telemetry(self, telemetry) -> None:
        """Wire a :class:`repro.telemetry.Telemetry` through the device."""
        ...

    def bind_crashkit(self, scheduler) -> None:
        """Wire a :class:`repro.crashkit.CrashScheduler` through the device.

        Composite backends hand each child a scoped view so crash sites
        report which controller was interrupted.
        """
        ...

    def collect_gauges(self, metrics, prefix: str = "") -> None:
        """Refresh point-in-time gauges (chip busy time, wear) in ``metrics``."""
        ...


#: ``snapshot()`` keys derived from the raw counters; merging backends
#: (sharding) sum the raw keys and recompute these.
DERIVED_SNAPSHOT_KEYS: tuple[str, ...] = tuple(DERIVED_RATIOS)


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge per-device ``snapshot()`` dicts into one device summary.

    Raw counters are summed over the *union* of the children's keys
    (a counter one shard never touched contributes 0); ratio/mean keys
    are recomputed from the sums so the merged view is exactly what one
    device with the combined traffic would report.  Key parity with the
    richest child snapshot is guaranteed by construction.
    """
    if not snapshots:
        raise ValueError("merge_snapshots needs at least one snapshot")
    raw_keys: list[str] = []
    for snap in snapshots:
        for key in snap:
            if key not in raw_keys and key not in DERIVED_SNAPSHOT_KEYS:
                raw_keys.append(key)
    merged = {
        key: sum(snap.get(key, 0) for snap in snapshots) for key in raw_keys
    }
    merged.update((key, derived_ratio(merged, key)) for key in DERIVED_SNAPSHOT_KEYS)
    return merged


def iter_shard_views(device) -> Iterator[tuple[str, "FlashDevice"]]:
    """``(label, child)`` pairs for composite devices, else one pair.

    Reporting helpers use this to show per-shard breakdowns without
    caring whether a device is composite; plain devices yield
    themselves under the empty label.
    """
    children = getattr(device, "shards", None)
    if children is None:
        yield "", device
        return
    for index, child in enumerate(children):
        yield f"shard{index}", child
