"""A sharded multi-controller device: K independent backends, one LPN space.

The ROADMAP's scale-out direction, unlocked by the
:class:`~repro.ftl.device.FlashDevice` seam: a :class:`ShardedDevice`
stripes the logical address space across K child controllers, each of
which owns its own flash array, chip clocks, regions and garbage
collection — the software analogue of a multi-controller SSD (or a
RAID-0 of NoFTL devices).

Layout
------
Logical pages stripe round-robin::

    shard(lpn)  = lpn % K
    local(lpn)  = lpn // K          # the child's logical page number
    lpn         = local * K + shard # inverse, used for telemetry

Consecutive logical pages land on different shards, so sequential scans
and bulk loads spread across every controller, and one shard's GC pause
only delays the fraction of traffic routed to it — the same reason
multi-channel striping works inside real SSDs.

Every child must expose the same page size and an identical region
layout (names, sizes, IPA modes); the sharded device publishes merged
:class:`~repro.ftl.device.HostRegionView` descriptors whose spans are
the children's stacked K-fold, so the storage layer's placement logic
is oblivious to the sharding.

Reporting
---------
``snapshot()`` merges the per-shard snapshots into one device summary
with exactly the single-device keys (sums for raw counters, recomputed
ratios/means).  With telemetry attached, each child's counters export
under a ``shard<i>_`` label prefix, GC events carry ``shard<i>/region``
labels, and host-I/O events report *global* LPNs.
"""

from __future__ import annotations

from ..errors import FTLError
from .device import DERIVED_SNAPSHOT_KEYS, HostIO, HostRegionView, merge_snapshots
from .stats import derived_ratio
from .region import RegionConfig

__all__ = ["ShardedDevice", "ShardedStats"]


class _ShardTelemetry:
    """Per-shard view of a Telemetry instance.

    Forwards every hook to the parent, translating local LPNs back to
    global ones and prefixing region labels and exported counter names
    with the shard name, so one event stream and one registry carry all
    shards distinguishably.  Everything not overridden (metrics
    registry, flash hooks, histograms) delegates to the parent
    unchanged.
    """

    def __init__(self, parent, shard: int, stride: int) -> None:
        self._parent = parent
        self._shard = shard
        self._stride = stride
        self._label = f"shard{shard}"

    def _global(self, local_lpn: int) -> int:
        return local_lpn * self._stride + self._shard

    def _region(self, name: str) -> str:
        return f"{self._label}/{name}"

    def __getattr__(self, name):
        return getattr(self._parent, name)

    # -- NoFTL hooks, label-translated ---------------------------------

    def export_stats(self, stats, prefix=""):
        self._parent.export_stats(stats, f"{self._label}_{prefix}")

    def on_host_read(self, lpn, num_bytes, latency_us):
        self._parent.on_host_read(self._global(lpn), num_bytes, latency_us)

    def on_host_write(self, lpn, num_bytes, latency_us):
        self._parent.on_host_write(self._global(lpn), num_bytes, latency_us)

    def on_write_delta(self, lpn, num_bytes, latency_us):
        self._parent.on_write_delta(self._global(lpn), num_bytes, latency_us)

    def on_gc_trigger(self, region, erased_available):
        self._parent.on_gc_trigger(self._region(region), erased_available)

    def on_gc_victim(self, region, victim, valid_pages, candidates):
        self._parent.on_gc_victim(self._region(region), victim, valid_pages, candidates)

    def on_gc_migration(self, region, lpn, src, dst):
        self._parent.on_gc_migration(self._region(region), self._global(lpn), src, dst)

    def on_gc_erase(self, region, victim, gc_time_us):
        self._parent.on_gc_erase(self._region(region), victim, gc_time_us)


class ShardedStats:
    """Merged read-only view over the shards' device counters.

    Raw counter attributes (``host_reads``, ``gc_erases``, ...) sum the
    children; derived ratios are recomputed from the sums.  The view
    holds no counts of its own: ``ShardedDevice.reset_stats()`` resets
    the children.
    """

    def __init__(self, shards) -> None:
        self._shards = list(shards)
        #: The counters each shard's ``snapshot()`` reports: a black-box
        #: shard's are those of its internal FTL.
        self._sources = [getattr(shard, "internal", shard).stats for shard in self._shards]
        self._raw_keys = frozenset(self._shards[0].snapshot()).difference(
            DERIVED_SNAPSHOT_KEYS
        )

    def __getattr__(self, name: str):
        """A raw counter summed over the shards in shard order, or a
        derived ratio of those sums — what :meth:`snapshot` holds under
        ``name``, without building any snapshot."""
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self._raw_keys:
            return sum(getattr(source, name) for source in self._sources)
        if name in DERIVED_SNAPSHOT_KEYS:
            return derived_ratio(self, name)
        raise AttributeError(name)

    def snapshot(self) -> dict:
        """Merged device summary (single-device snapshot keys)."""
        return merge_snapshots([shard.snapshot() for shard in self._shards])


class ShardedDevice:
    """K child controllers behind one logical page space (LPN striping)."""

    def __init__(self, shards) -> None:
        shards = list(shards)
        if not shards:
            raise FTLError("a sharded device needs at least one shard")
        first = shards[0]
        for index, shard in enumerate(shards[1:], start=1):
            if shard.page_size != first.page_size:
                raise FTLError(
                    f"shard {index} page size {shard.page_size} != {first.page_size}"
                )
            if shard.logical_pages != first.logical_pages:
                raise FTLError(
                    f"shard {index} holds {shard.logical_pages} logical pages, "
                    f"shard 0 holds {first.logical_pages}; shards must be uniform"
                )
            layout = [(r.name, r.config.logical_pages, r.ipa_mode) for r in shard.regions]
            expected = [(r.name, r.config.logical_pages, r.ipa_mode) for r in first.regions]
            if layout != expected:
                raise FTLError(f"shard {index} region layout differs from shard 0")
        self.shards = shards
        self._stride = len(shards)
        self.regions = self._merge_regions(first)
        self.stats = ShardedStats(shards)
        self.telemetry = None
        #: Crash-injection handle; ``None`` keeps commands injection-free.
        self.crashkit = None

    def _merge_regions(self, first) -> list[HostRegionView]:
        """Stack the children's identical region layouts K-fold.

        A child region spanning local pages ``[a, b)`` maps to global
        pages ``[a*K, b*K)`` under round-robin striping, so merged
        regions stay contiguous and cover the global space exactly.
        """
        merged: list[HostRegionView] = []
        for region in first.regions:
            config = RegionConfig(
                name=region.name,
                logical_pages=region.config.logical_pages * self._stride,
                ipa_mode=region.ipa_mode,
                overprovisioning=region.config.overprovisioning,
            )
            merged.append(HostRegionView(config, region.lpn_start * self._stride))
        return merged

    # ------------------------------------------------------------------
    # Geometry / identity
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.shards[0].page_size

    @property
    def logical_pages(self) -> int:
        return self.shards[0].logical_pages * self._stride

    @property
    def oob_size(self) -> int:
        return self.shards[0].oob_size

    @property
    def cell_type(self):
        return self.shards[0].cell_type

    @property
    def shard_count(self) -> int:
        return self._stride

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, lpn: int) -> tuple[int, int]:
        """``(shard_index, local_lpn)`` for a global logical page."""
        if not 0 <= lpn < self.logical_pages:
            raise FTLError(f"logical page {lpn} out of range [0, {self.logical_pages})")
        return lpn % self._stride, lpn // self._stride

    def _route(self, lpn: int):
        shard, local = self.shard_of(lpn)
        return self.shards[shard], local

    def region_of(self, lpn: int) -> HostRegionView:
        """The merged host-visible region hosting a logical page."""
        for region in self.regions:
            if region.contains(lpn):
                return region
        raise FTLError(f"logical page {lpn} outside every region")

    def region_named(self, name: str) -> HostRegionView:
        """Look a merged region up by its declared name."""
        for region in self.regions:
            if region.name == name:
                return region
        raise FTLError(f"no region named {name!r}")

    # ------------------------------------------------------------------
    # Host commands (routed)
    # ------------------------------------------------------------------

    def is_mapped(self, lpn: int) -> bool:
        """Whether the owning shard maps this global logical page."""
        child, local = self._route(lpn)
        return child.is_mapped(local)

    def read(self, lpn: int, now: float = 0.0) -> HostIO:
        """Read one logical page from its shard."""
        child, local = self._route(lpn)
        return child.read(local, now)

    def write(self, lpn: int, data: bytes, now: float = 0.0) -> HostIO:
        """Write one logical page out-of-place on its shard."""
        child, local = self._route(lpn)
        return child.write(local, data, now)

    def can_write_delta(self, lpn: int, offset: int, length: int) -> bool:
        """Ask the owning shard whether this delta append would succeed."""
        child, local = self._route(lpn)
        return child.can_write_delta(local, offset, length)

    def write_delta(self, lpn: int, offset: int, data: bytes, now: float = 0.0) -> HostIO:
        """In-place append a delta on the owning shard."""
        child, local = self._route(lpn)
        return child.write_delta(local, offset, data, now)

    def read_oob(self, lpn: int) -> bytes:
        """Read the OOB area of a logical page from its shard."""
        child, local = self._route(lpn)
        return child.read_oob(local)

    def write_oob(self, lpn: int, data: bytes, offset: int = 0) -> None:
        """Patch the OOB area of a logical page on its shard."""
        child, local = self._route(lpn)
        child.write_oob(local, data, offset)

    def trim(self, lpn: int) -> None:
        """Unmap a logical page on its shard."""
        child, local = self._route(lpn)
        child.trim(local)

    # ------------------------------------------------------------------
    # Dispatch hooks (host-side scheduling)
    # ------------------------------------------------------------------

    def occupancy(self) -> tuple[float, ...]:
        """Concatenated per-shard channel busy times, in shard order.

        Shard ``i``'s channels occupy the slice starting at the ``i``-th
        channel offset; :meth:`channel_of` returns indices in the same
        global numbering, so the scheduler sees one flat channel space
        spanning every controller.
        """
        merged: list[float] = []
        for shard in self.shards:
            merged.extend(shard.occupancy())
        return tuple(merged)

    def channel_of(self, lpn: int, op: str = "read") -> int | None:
        """Global channel hint: the owning shard's hint plus its offset."""
        shard, local = self.shard_of(lpn)
        hint = self.shards[shard].channel_of(local, op)
        if hint is None:
            return None
        offset = 0
        for child in self.shards[:shard]:
            offset += len(child.occupancy())
        return offset + hint

    # ------------------------------------------------------------------
    # Stats / telemetry
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """One merged device summary (single-device snapshot keys)."""
        return merge_snapshots([shard.snapshot() for shard in self.shards])

    def shard_snapshots(self) -> list[dict]:
        """Per-shard summaries, in shard order (scale-out reporting)."""
        return [shard.snapshot() for shard in self.shards]

    def reset_stats(self) -> None:
        """Zero every shard's counters (run boundaries)."""
        for shard in self.shards:
            shard.reset_stats()

    def bind_telemetry(self, telemetry) -> None:
        """Instrument every shard through a label-translating view."""
        self.telemetry = telemetry
        for index, shard in enumerate(self.shards):
            shard.bind_telemetry(_ShardTelemetry(telemetry, index, self._stride))

    def bind_crashkit(self, scheduler) -> None:
        """Arm power-fail injection on every shard.

        Each child gets a scoped view prefixing crash sites with
        ``shard<i>/`` while sharing the parent's global operation
        counter, so one op-count trigger deterministically spans all
        controllers.
        """
        self.crashkit = scheduler
        for index, shard in enumerate(self.shards):
            shard.bind_crashkit(scheduler.scoped(f"shard{index}"))

    def collect_gauges(self, metrics, prefix: str = "") -> None:
        """Refresh each shard's gauges under its ``shard<i>_`` label."""
        for index, shard in enumerate(self.shards):
            shard.collect_gauges(metrics, prefix=f"{prefix}shard{index}_")
