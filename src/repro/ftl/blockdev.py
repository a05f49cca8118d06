"""A conventional block-device SSD with the ``write_delta`` extension.

Section 7 of the paper: IPA's new command can also be retrofitted onto
traditional FTL-based SSDs — "delta-writes can be implemented on
conventional SSD and on Native Flash" — at the cost of lower
performance than under NoFTL, because the host cannot see the mapping.

:class:`BlockSSD` models that: the host talks LBAs through a black-box
interface; internally a page-level FTL (the same machinery NoFTL uses)
manages the flash.  ``write_delta(lba, offset, data)`` behaves like the
paper's primitive::

    write_delta (LBA, offset, delta_length, delta_bytes[])

The device decides what actually happens:

* if the target cells of the current physical page are still erased
  (and the page kind permits ISPP re-programming), the delta is
  appended **in place**;
* otherwise the device falls back internally to a read-modify-write:
  it reads the page, patches the delta bytes, and writes the result
  out-of-place.  The host cannot avoid this — unlike under NoFTL,
  where the DBMS knows the physical state and chooses the path.

The comparison of fallback rates and latencies between :class:`BlockSSD`
and :class:`~repro.ftl.noftl.NoFTL` quantifies the paper's "lower
performance compared to IPA under NoFTL" remark.

:class:`BlockSSD` conforms to the :class:`~repro.ftl.device.FlashDevice`
protocol, so the whole engine stack — buffer pool, IPA manager,
workloads, CLI — runs unmodified on top of the black-box device; the
host-visible region view it publishes reflects the internal FTL's IPA
mode so the storage layer reserves delta areas exactly as it would on
native flash.  :class:`BlockSSDStats` is a plain dataclass like
:class:`~repro.ftl.stats.DeviceStats`; attached telemetry exports its
fields, so ``rmw_fraction`` inputs and the delta-command counters
export via ``repro metrics`` next to the NoFTL counters.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass
from typing import ClassVar

from ..errors import DeltaWriteError, FTLError
from ..flash.constants import CellType
from ..flash.memory import FlashMemory
from ..telemetry.metrics import counter_field
from .device import HostIO, HostRegionView
from .noftl import NoFTL, single_region_device
from .region import IPAMode, RegionConfig


@dataclass(slots=True)
class BlockSSDStats:
    """Host-visible counters of the block device (``blockssd_*``)."""

    PREFIX: ClassVar[str] = "blockssd_"
    reads: int = counter_field("Block-device read commands served")
    writes: int = counter_field("Block-device write commands served")
    delta_commands: int = counter_field("write_delta commands received by the device")
    deltas_in_place: int = counter_field("Delta commands served as true In-Place Appends")
    deltas_rmw: int = counter_field("Delta commands absorbed as internal read-modify-writes")

    @property
    def rmw_fraction(self) -> float:
        if self.delta_commands == 0:
            return 0.0
        return self.deltas_rmw / self.delta_commands

    def snapshot(self) -> dict:
        """Plain dict of the counters, in field order."""
        return asdict(self)


class BlockSSD:
    """Black-box SSD: LBA interface outside, page-level FTL inside."""

    def __init__(
        self,
        flash: FlashMemory,
        capacity_pages: int,
        ipa_mode: IPAMode | None = None,
        overprovisioning: float = 0.10,
        serialize_io: bool = False,
    ) -> None:
        if ipa_mode is None:
            ipa_mode = (
                IPAMode.NATIVE
                if flash.geometry.cell_type is CellType.SLC
                else IPAMode.ODD_MLC
            )
        self._ftl: NoFTL = single_region_device(
            flash,
            logical_pages=capacity_pages,
            ipa_mode=ipa_mode,
            overprovisioning=overprovisioning,
            serialize_io=serialize_io,
        )
        self.stats = BlockSSDStats()
        #: Host-visible placement view: one region spanning the LBA
        #: space, advertising the internal IPA mode so the storage
        #: layer reserves delta areas where appends can happen.
        self.regions = [
            HostRegionView(
                RegionConfig(
                    name="default",
                    logical_pages=capacity_pages,
                    ipa_mode=ipa_mode,
                    overprovisioning=overprovisioning,
                ),
                lpn_start=0,
            )
        ]
        self.telemetry = None
        #: Crash-injection handle; ``None`` keeps commands injection-free.
        self.crashkit = None

    # ------------------------------------------------------------------
    # Geometry / identity
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self._ftl.page_size

    @property
    def logical_pages(self) -> int:
        return self._ftl.logical_pages

    @property
    def oob_size(self) -> int:
        return self._ftl.oob_size

    @property
    def cell_type(self) -> CellType:
        return self._ftl.cell_type

    def region_of(self, lpn: int) -> HostRegionView:
        """The (single) host-visible region hosting a logical page."""
        self._check_lba(lpn)
        return self.regions[0]

    def region_named(self, name: str) -> HostRegionView:
        """Look the host-visible region up by name."""
        for region in self.regions:
            if region.name == name:
                return region
        raise FTLError(f"no region named {name!r}")

    # ------------------------------------------------------------------
    # Block-device interface
    # ------------------------------------------------------------------

    def is_mapped(self, lpn: int) -> bool:
        """Whether the LBA has ever been written (SMART-style probe)."""
        return self._ftl.is_mapped(lpn)

    def read(self, lpn: int, now: float = 0.0) -> HostIO:
        """Read one logical block (the raw stored image)."""
        self._check_lba(lpn)
        self.stats.reads += 1
        return self._ftl.read(lpn, now)

    def write(self, lpn: int, data: bytes, now: float = 0.0) -> HostIO:
        """Write one logical block (always out-of-place internally)."""
        self._check_lba(lpn)
        self.stats.writes += 1
        return self._ftl.write(lpn, data, now)

    def can_write_delta(self, lpn: int, offset: int, length: int) -> bool:
        """Whether a delta would execute in place (device introspection).

        A real black-box host cannot ask this; it exists so the
        protocol-conformance surface is uniform and so tests can
        distinguish the two internal paths.
        """
        return self._ftl.can_write_delta(lpn, offset, length)

    def write_delta(self, lpn: int, offset: int, data: bytes, now: float = 0.0) -> HostIO:
        """The Section 7 primitive, with device-internal fallback.

        Returns the I/O result; :attr:`stats` records whether the
        command executed as an in-place append or degenerated into a
        read-modify-write (which costs a read, a full program, and
        future GC work — exactly the penalty of the black-box
        architecture).
        """
        self._check_lba(lpn)
        if not data:
            raise FTLError("empty delta")
        if not self._ftl.is_mapped(lpn):
            raise DeltaWriteError(f"LBA {lpn} not yet written")
        self.stats.delta_commands += 1
        with contextlib.suppress(DeltaWriteError):
            io = self._ftl.write_delta(lpn, offset, data, now)
            self.stats.deltas_in_place += 1
            return io
        # Internal read-modify-write fallback.
        self.stats.deltas_rmw += 1
        current = self._ftl.read(lpn, now)
        if self.crashkit is not None:
            # Mid-absorption window: the device has read the old image
            # but not yet written the patched copy.  The host believed
            # it issued one atomic delta command; a crash here must look
            # like the delta never happened.
            self.crashkit.site("blockssd.rmw")
        image = bytearray(current.data)
        image[offset : offset + len(data)] = data
        write_io = self._ftl.write(lpn, bytes(image), now + current.latency_us)
        return HostIO(None, current.latency_us + write_io.latency_us)

    def read_oob(self, lpn: int) -> bytes:
        """Spare-area bytes of a block's current flash home."""
        self._check_lba(lpn)
        return self._ftl.read_oob(lpn)

    def write_oob(self, lpn: int, data: bytes, offset: int = 0) -> None:
        """Append ECC bytes into a block's spare area."""
        self._check_lba(lpn)
        self._ftl.write_oob(lpn, data, offset)

    def trim(self, lpn: int) -> None:
        """Deallocate one block (its flash pages become garbage)."""
        self._check_lba(lpn)
        self._ftl.trim(lpn)

    # ------------------------------------------------------------------
    # Dispatch hooks (host-side scheduling)
    # ------------------------------------------------------------------

    def occupancy(self) -> tuple[float, ...]:
        """Per-channel busy times of the internal FTL's chips.

        A real black-box SSD exposes this only as queue-full
        backpressure; publishing the chip clocks keeps the scheduling
        experiments comparable across backends.
        """
        return self._ftl.occupancy()

    def channel_of(self, lpn: int, op: str = "read") -> int | None:
        """Advisory channel hint from the internal FTL.

        Note the black-box caveat: a delta the device absorbs as an
        internal read-modify-write touches a second (write) channel the
        hint does not predict.
        """
        self._check_lba(lpn)
        return self._ftl.channel_of(lpn, op)

    # ------------------------------------------------------------------
    # Stats / telemetry
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Flash-side counter summary (same keys as a NoFTL snapshot).

        ``delta_writes`` counts only the commands that truly appended in
        place; internally absorbed read-modify-writes surface as extra
        host reads and page writes — the black-box penalty, in the same
        currency as every other backend.
        """
        return self._ftl.snapshot()

    def reset_stats(self) -> None:
        """Zero both the block-interface and the internal FTL counters."""
        self.stats.__init__()
        self._ftl.reset_stats()

    def bind_telemetry(self, telemetry) -> None:
        """Instrument the internal FTL and export the device counters."""
        self.telemetry = telemetry
        telemetry.export_stats(self.stats)
        self._ftl.bind_telemetry(telemetry)

    def bind_crashkit(self, scheduler) -> None:
        """Arm power-fail injection on the device and its internal FTL."""
        self.crashkit = scheduler
        self._ftl.bind_crashkit(scheduler)

    def collect_gauges(self, metrics, prefix: str = "") -> None:
        """Refresh chip-busy and wear gauges from the internal FTL."""
        self._ftl.collect_gauges(metrics, prefix=prefix)

    # ------------------------------------------------------------------
    # Introspection (SMART-style, not part of the block interface)
    # ------------------------------------------------------------------

    @property
    def internal(self) -> NoFTL:
        """The device-internal FTL, for tests and wear reporting."""
        return self._ftl

    def wear_summary(self) -> dict:
        """Min / max / total erase counts (SMART-style)."""
        return self._ftl.flash.wear_summary()

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self._ftl.logical_pages:
            raise FTLError(f"LBA {lba} out of range [0, {self._ftl.logical_pages})")
