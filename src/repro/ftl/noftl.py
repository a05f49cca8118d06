"""The NoFTL controller: native flash management inside the DBMS.

Implements the storage interface of the paper (Sections 5 and 7):

* ``read(lpn)`` / ``write(lpn, data)`` — the conventional block commands;
  writes are out-of-place with page-level mapping and greedy GC.
* ``write_delta(lpn, offset, data)`` — the paper's new first-class I/O
  command: ISPP-appends ``data`` into the erased part of the *same*
  physical page the logical page already lives on.  No mapping change,
  no page invalidation, no GC pressure.
* regions — physically partitioned block sets with individual IPA modes.

Timing: the controller owns the device clock discipline.  Each command
is executed on the target page's chip; a chip runs one command at a
time, so the returned *observed* latency includes the wait for the chip
to become free.  Garbage collection runs inline on the same chips,
which is exactly how GC interference degrades host latencies on real
SSDs (Section 8.4, "I/O and Transactional Response Times").
"""

from __future__ import annotations

from ..errors import (
    DeltaWriteError,
    FTLError,
    OutOfSpaceError,
    RegionError,
)
from ..flash import ispp
from ..flash.constants import CellType
from ..flash.geometry import PhysicalAddress
from ..flash.memory import FlashMemory
from .device import HostIO
from .gc import VictimPolicy, greedy
from .mapping import BlockKey, PageMapping
from .region import IPAMode, Region, RegionConfig, blocks_needed
from .stats import DeviceStats

__all__ = ["HostIO", "NoFTL", "single_region_device"]


class NoFTL:
    """Native flash controller with regions and In-Place Appends.

    Build one with :meth:`create` (region list) or the
    :func:`single_region_device` convenience factory.
    """

    def __init__(
        self,
        flash: FlashMemory,
        regions: list[Region],
        victim_policy: VictimPolicy = greedy,
        serialize_io: bool = False,
    ) -> None:
        self.flash = flash
        self.regions = regions
        self.mapping = PageMapping(flash.geometry)
        self.victim_policy = victim_policy
        #: OpenSSD-Jasmine mode: no NCQ, one host command at a time.
        self.serialize_io = serialize_io
        self.stats = DeviceStats()
        #: Telemetry handle (``repro.telemetry.Telemetry``); ``None``
        #: (the default) keeps every host command free of event work.
        self.telemetry = None
        #: Crash-injection handle (``repro.crashkit.CrashScheduler``);
        #: ``None`` (the default) keeps every command injection-free.
        self.crashkit = None
        self._device_busy_until = 0.0
        self._erase_counts: dict[BlockKey, int] = {}
        self._pages_per_chip = flash.geometry.pages_per_chip

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        flash: FlashMemory,
        configs: list[RegionConfig],
        victim_policy: VictimPolicy = greedy,
        serialize_io: bool = False,
    ) -> "NoFTL":
        """Partition the flash array into the requested regions.

        Blocks are handed out striped across each region's allowed chips
        so regions keep chip-level parallelism.  Logical page numbers of
        consecutive regions are stacked contiguously starting at 0.
        """
        geometry = flash.geometry
        available: dict[int, list[int]] = {
            chip: list(range(geometry.blocks_per_chip)) for chip in range(geometry.chips)
        }
        regions: list[Region] = []
        lpn_start = 0
        for config in configs:
            chips = config.chips if config.chips is not None else list(range(geometry.chips))
            for chip in chips:
                if chip not in available:
                    raise RegionError(f"region {config.name!r}: chip {chip} does not exist")
            needed = blocks_needed(config, geometry)
            blocks: list[BlockKey] = []
            cursor = 0
            while len(blocks) < needed:
                chip = chips[cursor % len(chips)]
                cursor += 1
                if available[chip]:
                    blocks.append((chip, available[chip].pop(0)))
                elif all(not available[c] for c in chips):
                    raise RegionError(
                        f"region {config.name!r} needs {needed} blocks, flash exhausted"
                    )
            regions.append(Region(config, geometry, lpn_start, blocks))
            lpn_start += config.logical_pages
        return cls(
            flash, regions, victim_policy=victim_policy, serialize_io=serialize_io
        )

    # ------------------------------------------------------------------
    # Region / address helpers
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self.flash.geometry.page_size

    @property
    def logical_pages(self) -> int:
        return sum(region.config.logical_pages for region in self.regions)

    @property
    def oob_size(self) -> int:
        return self.flash.geometry.oob_size

    @property
    def cell_type(self) -> CellType:
        return self.flash.geometry.cell_type

    def region_of(self, lpn: int) -> Region:
        """The region hosting a logical page."""
        for region in self.regions:
            if region.contains(lpn):
                return region
        raise FTLError(f"logical page {lpn} outside every region")

    def region_named(self, name: str) -> Region:
        """Look a region up by its declared name."""
        for region in self.regions:
            if region.name == name:
                return region
        raise RegionError(f"no region named {name!r}")

    def physical_address(self, lpn: int) -> PhysicalAddress:
        """Current physical home of a logical page (raises if unmapped)."""
        return self.flash.geometry.address(self.mapping.lookup(lpn))

    def is_mapped(self, lpn: int) -> bool:
        """Whether the logical page has ever been written."""
        return lpn in self.mapping

    # ------------------------------------------------------------------
    # Host commands
    # ------------------------------------------------------------------

    def read(self, lpn: int, now: float = 0.0) -> HostIO:
        """Read the raw flash image of a logical page.

        The image contains the page body as last written plus any delta
        records appended since; applying them is the storage layer's job.
        """
        ppn = self.mapping.lookup(lpn)
        op = self.flash.read(ppn)
        latency = self._execute(ppn // self._pages_per_chip, op.latency_us, now)
        self.stats.host_reads += 1
        self.stats.bytes_host_read += len(op.data)
        self.stats.read_latency_us_total += latency
        if self.telemetry is not None:
            self.telemetry.on_host_read(lpn, len(op.data), latency)
        return HostIO(op.data, latency)

    def write(self, lpn: int, data: bytes, now: float = 0.0) -> HostIO:
        """Out-of-place write of a full logical page."""
        if len(data) != self.page_size:
            raise FTLError(
                f"write of {len(data)} bytes; device page size is {self.page_size}"
            )
        region = self.region_of(lpn)
        self._collect_if_needed(region, now)
        ppn = region.allocate()
        op = self.flash.program(ppn, data)
        latency = self._execute(ppn // self._pages_per_chip, op.latency_us, now)
        if self.crashkit is not None:
            # The new physical copy exists but the mapping still points
            # at the old one — a crash here must lose only the update.
            self.crashkit.site("noftl.map_update")
        self.mapping.bind(lpn, ppn)
        self.stats.host_page_writes += 1
        self.stats.bytes_page_written += len(data)
        self.stats.write_latency_us_total += latency
        if self.telemetry is not None:
            self.telemetry.on_host_write(lpn, len(data), latency)
        return HostIO(None, latency)

    def can_write_delta(self, lpn: int, offset: int, length: int) -> bool:
        """Whether a delta of ``length`` bytes at ``offset`` can append in place."""
        if lpn not in self.mapping:
            return False
        ppn = self.mapping.lookup(lpn)
        region = self.region_of(lpn)
        if not region.appends_allowed_at(ppn):
            return False
        if length <= 0 or offset < 0 or offset + length > self.page_size:
            return False
        # A delta slot must still be erased: the append may carry any bytes.
        return self.flash.page_at(ppn).is_erased_range(offset, length)

    def write_delta(self, lpn: int, offset: int, data: bytes, now: float = 0.0) -> HostIO:
        """In-place append of a delta record onto the page's current home.

        Raises :class:`DeltaWriteError` when the region mode, the page
        kind (MSB under odd-MLC) or the cell state forbids the append;
        the caller is expected to fall back to :meth:`write`.
        """
        if not data:
            raise DeltaWriteError("empty delta")
        if lpn not in self.mapping:
            raise DeltaWriteError(f"logical page {lpn} not yet written")
        ppn = self.mapping.lookup(lpn)
        region = self.region_of(lpn)
        if not region.appends_allowed_at(ppn):
            raise DeltaWriteError(
                f"region {region.name!r} ({region.ipa_mode.value}) forbids appends "
                f"at {self.flash.geometry.address(ppn)}"
            )
        page = self.flash.page_at(ppn)
        if not page.is_erased_range(offset, len(data)):
            raise DeltaWriteError(
                f"delta at [{offset}, {offset + len(data)}) hits programmed cells"
            )
        op = self.flash.program(ppn, data, offset)
        latency = self._execute(ppn // self._pages_per_chip, op.latency_us, now)
        self.stats.delta_writes += 1
        self.stats.bytes_delta_written += len(data)
        self.stats.write_latency_us_total += latency
        if self.telemetry is not None:
            self.telemetry.on_write_delta(lpn, len(data), latency)
        return HostIO(None, latency)

    def write_oob(self, lpn: int, data: bytes, offset: int = 0) -> None:
        """Append ECC bytes to the OOB area of a logical page's home."""
        self.flash.program_oob(self.mapping.lookup(lpn), data, offset)

    def read_oob(self, lpn: int) -> bytes:
        """Spare-area bytes of a logical page's current home."""
        return self.flash.read_oob(self.mapping.lookup(lpn))

    def trim(self, lpn: int) -> None:
        """Drop a logical page (deallocation); its cells become garbage."""
        self.mapping.unbind(lpn)

    # ------------------------------------------------------------------
    # Dispatch hooks (host-side scheduling)
    # ------------------------------------------------------------------

    def occupancy(self) -> tuple[float, ...]:
        """Per-channel ``busy_until`` times for the host scheduler.

        One channel per chip under NCQ; the serialized (OpenSSD) device
        executes one host command at a time device-wide, so it reports a
        single channel covering every chip.
        """
        chips = self.flash.occupancy()
        if self.serialize_io:
            return (max(self._device_busy_until, *chips),)
        return chips

    def channel_of(self, lpn: int, op: str = "read") -> int | None:
        """Which chip would serve this command (advisory, see protocol).

        Reads and deltas go to the page's current physical home; a write
        goes wherever the region allocator's round-robin cursor points
        next.  The write hint can be wrong when GC intervenes — that
        only costs queueing time, never correctness.
        """
        if self.serialize_io:
            return 0
        if op == "write":
            region = self.region_of(lpn)
            return region.peek_chip()
        return self.mapping.chip_of(lpn)

    # ------------------------------------------------------------------
    # Stats / telemetry (the FlashDevice reporting surface)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Device counter summary (raw and derived values)."""
        return self.stats.snapshot()

    def reset_stats(self) -> None:
        """Zero the device counters (run boundaries)."""
        self.stats.__init__()

    def bind_telemetry(self, telemetry) -> None:
        """Instrument this controller and its flash array."""
        self.telemetry = telemetry
        telemetry.export_stats(self.stats)
        self.flash.telemetry = telemetry
        self.flash.latency.observer = telemetry.on_raw_latency

    def bind_crashkit(self, scheduler) -> None:
        """Arm power-fail injection on this controller and its flash."""
        self.crashkit = scheduler
        self.flash.crashkit = scheduler

    def collect_gauges(self, metrics, prefix: str = "") -> None:
        """Refresh chip-busy and wear gauges in ``metrics``."""
        for index, chip in enumerate(self.flash.chips):
            metrics.gauge(
                f"{prefix}chip_{index}_busy_time_us",
                help="Accumulated command time on this chip's pipeline",
            ).set(chip.busy_time_us)
        wear = self.flash.wear_summary()
        metrics.gauge(
            f"{prefix}wear_max_erase_count", help="Most-worn block's erase count"
        ).set(wear["max"])
        metrics.gauge(
            f"{prefix}wear_min_erase_count", help="Least-worn block's erase count"
        ).set(wear["min"])

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _collect_if_needed(self, region: Region, now: float) -> None:
        """Run GC rounds until the region's free list is above reserve.

        GC work is scheduled on the chips' pipelines starting at ``now``
        (their ``busy_until`` advances), so the triggering host write —
        and any later command on those chips — observes the GC delay:
        the interference the paper measures.
        """
        guard = 0
        if self.telemetry is not None and region.needs_gc():
            self.telemetry.on_gc_trigger(region.name, region.erased_available)
        while region.needs_gc():
            if not self._collect_one(region, now):
                if region.erased_available <= 0:
                    raise OutOfSpaceError(
                        f"region {region.name!r}: nothing reclaimable"
                    )
                break
            guard += 1
            if guard > 2 * len(region.blocks):
                raise OutOfSpaceError(f"region {region.name!r}: GC livelock")

    def _collect_one(self, region: Region, now: float) -> bool:
        """One GC round: pick victim, migrate valid pages, erase.

        Migration runs on ppns: each live page of the victim is read,
        programmed to the region's next allocated ppn together with its
        spare bytes, and rebound there.  Every GC flash operation is
        scheduled on its chip's pipeline, so host commands issued
        afterwards observe the GC delay.  Telemetry receives
        :class:`PhysicalAddress` values, built only when it is attached.
        """
        candidates = [
            key
            for key in region.candidate_victims()
            if self.mapping.valid_count(key) < region.usable_pages_per_block
        ]
        victim = self.victim_policy(candidates, self.mapping, self._erase_counts)
        if victim is None:
            # Every block is an open write block: close the least-valid
            # one so the collector has something to reclaim.
            victim = region.retire_active(self.mapping)
            if victim is None:
                return False
        tele = self.telemetry
        if tele is not None:
            tele.on_gc_victim(
                region.name, victim, self.mapping.valid_count(victim), len(candidates)
            )
        gc_time = 0.0
        pages_per_chip = self._pages_per_chip
        for lpn, ppn in self.mapping.valid_pages_in_block(victim):
            read_op = self.flash.read(ppn)
            gc_time += self._busy(ppn // pages_per_chip, read_op.latency_us, now)
            target = region.allocate()
            program_op = self.flash.program(target, read_op.data)
            gc_time += self._busy(target // pages_per_chip, program_op.latency_us, now)
            # The spare area travels with the page: ECC codes protect
            # content that is migrated verbatim, so they stay valid.
            oob = self.flash.page_at(ppn).read_oob()
            if not ispp.is_erased(oob):
                self.flash.program_oob(target, oob)
            if self.crashkit is not None:
                # Victim migration window: the copy landed but the old
                # location is still the mapped one, so a crash loses
                # nothing — the migration simply never happened.
                self.crashkit.site("noftl.gc_migrate")
            self.mapping.bind(lpn, target)
            self.stats.gc_page_migrations += 1
            if tele is not None:
                geometry = self.flash.geometry
                tele.on_gc_migration(
                    region.name, lpn, geometry.address(ppn), geometry.address(target)
                )
        self.mapping.block_emptied(victim)
        erase_op = self.flash.erase(victim[0], victim[1])
        gc_time += self._busy(victim[0], erase_op.latency_us, now)
        self._erase_counts[victim] = self._erase_counts.get(victim, 0) + 1
        self.stats.gc_erases += 1
        self.stats.gc_time_us_total += gc_time
        if tele is not None:
            tele.on_gc_erase(region.name, victim, gc_time)
        region.release_block(victim)
        return True

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def _execute(self, chip_index: int, raw_latency: float, now: float) -> float:
        """Schedule one command on a chip; returns observed latency."""
        chip = self.flash.chips[chip_index]
        start = max(now, chip.busy_until)
        if self.serialize_io:
            start = max(start, self._device_busy_until)
        end = chip.occupy(start, raw_latency)
        if self.serialize_io:
            self._device_busy_until = end
        return end - now

    def _busy(self, chip_index: int, raw_latency: float, now: float) -> float:
        """Occupy a chip pipeline with device-internal (GC) work.

        Identical scheduling to :meth:`_execute`, but the caller does
        not wait on the result — the cost shows up as queueing delay for
        later host commands on the same chip.  Returns the raw latency
        for GC-time accounting.
        """
        chip = self.flash.chips[chip_index]
        start = max(now, chip.busy_until)
        chip.occupy(start, raw_latency)
        if self.serialize_io:
            self._device_busy_until = max(self._device_busy_until, chip.busy_until)
        return raw_latency


def single_region_device(
    flash: FlashMemory,
    logical_pages: int,
    ipa_mode: IPAMode = IPAMode.NONE,
    overprovisioning: float = 0.10,
    victim_policy: VictimPolicy = greedy,
    serialize_io: bool = False,
) -> NoFTL:
    """A NoFTL device with one region spanning the whole logical space."""
    config = RegionConfig(
        name="default",
        logical_pages=logical_pages,
        ipa_mode=ipa_mode,
        overprovisioning=overprovisioning,
    )
    return NoFTL.create(
        flash, [config], victim_policy=victim_policy, serialize_io=serialize_io
    )
