"""The flash array facade: page reads, programs, appends, erases.

:class:`FlashMemory` is the boundary the FTL / NoFTL layer talks to.
It enforces the physical rules (ISPP charge increase, in-order first
programs on MLC, wear limits), keeps operation counters, computes raw
operation latencies via the :class:`~repro.flash.timing.LatencyModel`,
and hosts the optional fault injector.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AddressError, EraseError
from .block import FlashBlock
from .chip import FlashChip
from .constants import CellType, PageKind
from .faults import FaultInjector
from .geometry import FlashGeometry, PhysicalAddress
from .page import FlashPage
from .timing import LatencyModel


@dataclass
class FlashStats:
    """Raw operation counters of one flash array."""

    page_reads: int = 0
    page_programs: int = 0
    delta_programs: int = 0
    block_erases: int = 0
    bytes_read: int = 0
    bytes_programmed: int = 0
    busy_time_us: float = 0.0

    def snapshot(self) -> dict:
        """Plain-dict copy for reporting."""
        return dict(self.__dict__)


@dataclass
class OpResult:
    """Outcome of one flash command: payload (for reads) and latency."""

    data: bytes | None
    latency_us: float


class FlashMemory:
    """A simulated NAND array of one or more chips.

    Every page command (:meth:`read`, :meth:`program`,
    :meth:`program_oob`, :meth:`read_oob`, :meth:`page_at`) names its
    page by a flat physical page number (ppn, see
    :meth:`FlashGeometry.ppn`): the page runs on chip
    ``ppn // pages_per_chip`` at index ``ppn % pages_per_block`` of its
    block.  Only :meth:`erase` names an erase unit as ``(chip, block)``.
    :class:`PhysicalAddress` values are built for telemetry events only.

    Parameters
    ----------
    geometry:
        Shape and cell technology of the array.
    latency_model:
        Converts operations to microsecond costs.  Defaults to the
        standard NAND timing tables.  Read and program costs are
        resolved from it once, at construction.
    fault_injector:
        Optional error model (retention leaks, program interference).
    endurance:
        Override of the per-block P/E limit (for fast wear-out tests).
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        latency_model: LatencyModel | None = None,
        fault_injector: FaultInjector | None = None,
        endurance: int | None = None,
    ) -> None:
        self.geometry = geometry
        self.latency = latency_model if latency_model is not None else LatencyModel()
        self.faults = fault_injector
        #: First programs within a block must go in increasing page
        #: order on MLC/TLC (the physical requirement), not on SLC.
        self._ordered_programs = geometry.cell_type is not CellType.SLC
        self.chips = [FlashChip(geometry, endurance=endurance) for _ in range(geometry.chips)]
        #: Every block and page in ppn order.  Pages persist across
        #: erases, so the tables never go stale.
        self._blocks = [block for chip in self.chips for block in chip.blocks]
        self._pages = [page for block in self._blocks for page in block.pages]
        self._total_pages = geometry.total_pages
        self._pages_per_chip = geometry.pages_per_chip
        self._pages_per_block = geometry.pages_per_block
        #: Page kind and array times by page-index parity: the array has
        #: one cell type, so each is one of two values.
        cell_type = geometry.cell_type
        self._kinds = (geometry.page_kind(0), geometry.page_kind(1))
        self._read_us = tuple(self.latency.base("read", cell_type, k) for k in self._kinds)
        self._program_us = tuple(self.latency.base("program", cell_type, k) for k in self._kinds)
        self._transfer_us_per_kib = self.latency.transfer_us_per_kib
        #: Cached occupancy tuple, rebuilt lazily after any chip's
        #: pipeline advances (the chips call back on ``occupy``).
        self._occupancy_cache: tuple[float, ...] | None = None
        for chip in self.chips:
            chip.on_occupy = self._invalidate_occupancy
        self.stats = FlashStats()
        #: Telemetry handle (``repro.telemetry.Telemetry``); ``None``
        #: keeps the command path free of any event work.
        self.telemetry = None
        #: Crash-injection handle (``repro.crashkit.CrashScheduler``);
        #: ``None`` keeps the command path free of any injection work.
        self.crashkit = None

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------

    def page_at(self, ppn: int) -> FlashPage:
        """The physical page object at a ppn (validated)."""
        if not 0 <= ppn < self._total_pages:
            raise AddressError(f"ppn {ppn} out of range [0, {self._total_pages})")
        return self._pages[ppn]

    def page_kind(self, ppn: int) -> PageKind:
        """LSB or MSB kind of the page at a ppn."""
        return self._kinds[(ppn % self._pages_per_block) & 1]

    def is_lsb(self, ppn: int) -> bool:
        """Whether the page may receive ISPP appends (LSB pages only)."""
        return self.page_kind(ppn) is PageKind.LSB

    def _invalidate_occupancy(self) -> None:
        self._occupancy_cache = None

    def occupancy(self) -> tuple[float, ...]:
        """Per-chip pipeline ``busy_until`` times, in chip order.

        The host-side scheduler (:mod:`repro.hostq`) reads this to find
        idle dies before dispatching: a chip whose entry is at or below
        the current simulated time can start a command immediately.
        The tuple is cached between pipeline advances — the scheduler
        polls occupancy far more often than commands execute.
        """
        cached = self._occupancy_cache
        if cached is None:
            cached = tuple(chip.busy_until for chip in self.chips)
            self._occupancy_cache = cached
        return cached

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def read(self, ppn: int) -> OpResult:
        """Read the whole data area of the page at ``ppn``."""
        page = self.page_at(ppn)
        if self.crashkit is not None:
            self.crashkit.site("flash.read")
        data = bytes(page.data)
        length = len(data)
        parity = (ppn % self._pages_per_block) & 1
        latency = self._read_us[parity] + self._transfer_us_per_kib * (length / 1024.0)
        observer = self.latency.observer
        if observer is not None:
            observer("read", self.geometry.cell_type, self._kinds[parity], latency)
        self.stats.page_reads += 1
        self.stats.bytes_read += length
        self.stats.busy_time_us += latency
        if self.telemetry is not None:
            self.telemetry.on_flash_op(
                "read", self.geometry.address(ppn), self.geometry.cell_type,
                self._kinds[parity], length, latency,
            )
        return OpResult(data, latency)

    def read_oob(self, ppn: int) -> bytes:
        """Read a page's spare area (no latency accounting: piggybacks on reads)."""
        return self.page_at(ppn).read_oob()

    def program(self, ppn: int, data: bytes, offset: int = 0) -> OpResult:
        """Program the page at ``ppn`` (full write or in-place ISPP append).

        The first program of an erased page is the conventional write
        path and is checked against the block's in-order rule.  Any
        later program of the same page is an ISPP re-program — the
        ``write_delta`` physical realization — and triggers the program-
        interference model on neighbouring wordlines when enabled.
        """
        page = self.page_at(ppn)
        index = ppn % self._pages_per_block
        block = self._blocks[ppn // self._pages_per_block]
        first = not page.programmed
        size = len(data)
        kind = self._kinds[index & 1]
        latency = self._program_us[index & 1] + self._transfer_us_per_kib * (size / 1024.0)
        observer = self.latency.observer
        if self.crashkit is not None:
            point = self.crashkit.tick("flash.program")
            if point is not None:
                changed = page.program_torn(data, offset, self.crashkit.torn_decider(point))
                if changed and first:
                    block.note_first_program(index, enforce_order=False)
                if observer is not None:
                    observer("program", self.geometry.cell_type, kind, latency)
                partial = self.latency.interrupted(latency, point.fraction)
                self.chips[ppn // self._pages_per_chip].charge(partial)
                self.stats.busy_time_us += partial
                self.crashkit.fail("flash.program", point)
        if first:
            block.note_first_program(index, self._ordered_programs)
        page.program(data, offset)
        if observer is not None:
            observer("program", self.geometry.cell_type, kind, latency)
        self.stats.bytes_programmed += size
        self.stats.busy_time_us += latency
        if first:
            self.stats.page_programs += 1
        else:
            self.stats.delta_programs += 1
            self._interfere_neighbours(block, index, offset, size)
        if self.telemetry is not None:
            self.telemetry.on_flash_op(
                "program" if first else "delta_program", self.geometry.address(ppn),
                self.geometry.cell_type, kind, size, latency,
            )
        return OpResult(None, latency)

    def program_oob(self, ppn: int, data: bytes, offset: int = 0) -> None:
        """ISPP-append spare-area bytes (ECC codes, IPA commit marks)."""
        page = self.page_at(ppn)
        if self.crashkit is not None:
            point = self.crashkit.tick("flash.program_oob")
            if point is not None:
                page.program_oob_torn(data, offset, self.crashkit.torn_decider(point))
                self.crashkit.fail("flash.program_oob", point)
        page.program_oob(data, offset)

    def erase(self, chip: int, block: int) -> OpResult:
        """Erase one block; every page returns to the all-``0xFF`` state."""
        if not 0 <= chip < len(self.chips):
            raise EraseError(f"chip {chip} out of range")
        if not 0 <= block < len(self.chips[chip].blocks):
            raise EraseError(f"block {block} out of range")
        if self.crashkit is not None:
            point = self.crashkit.tick("flash.erase")
            if point is not None:
                self.chips[chip].blocks[block].erase_torn(self.crashkit.torn_decider(point))
                partial = self.latency.interrupted(
                    self.latency.erase(self.geometry.cell_type), point.fraction
                )
                self.chips[chip].charge(partial)
                self.stats.busy_time_us += partial
                self.crashkit.fail("flash.erase", point)
        self.chips[chip].blocks[block].erase()
        latency = self.latency.erase(self.geometry.cell_type)
        self.stats.block_erases += 1
        self.stats.busy_time_us += latency
        if self.telemetry is not None:
            self.telemetry.on_flash_op(
                "erase", PhysicalAddress(chip, block, 0),
                self.geometry.cell_type, None, 0, latency,
            )
        return OpResult(None, latency)

    # ------------------------------------------------------------------
    # Fault model hooks
    # ------------------------------------------------------------------

    def _interfere_neighbours(self, block: FlashBlock, index: int, offset: int, length: int) -> None:
        """Run the program-interference model for one append to ``index``."""
        if self.faults is None or self.faults.interference_rate == 0.0:
            return
        for neighbour_index in (index - 1, index + 1):
            if 0 <= neighbour_index < len(block.pages):
                neighbour = block.pages[neighbour_index]
                if neighbour.programmed:
                    self.faults.interfere(neighbour, offset, length)

    def age(self) -> int:
        """Apply one retention pass to the whole array; returns bit flips."""
        if self.faults is None:
            return 0
        return sum(self.faults.age_block(block) for chip in self.chips for block in chip.blocks)

    # ------------------------------------------------------------------
    # Wear reporting
    # ------------------------------------------------------------------

    def total_erases(self) -> int:
        """Erase operations performed across the whole array."""
        return sum(chip.total_erases() for chip in self.chips)

    def wear_summary(self) -> dict:
        """Min / max / total erase counts across all blocks."""
        counts = [
            block.erase_count for chip in self.chips for block in chip.blocks
        ]
        return {
            "min": min(counts),
            "max": max(counts),
            "total": sum(counts),
            "mean": sum(counts) / len(counts),
        }
