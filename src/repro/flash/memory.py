"""The flash array facade: addressed reads, programs, appends, erases.

:class:`FlashMemory` is the boundary the FTL / NoFTL layer talks to.
It enforces the physical rules (ISPP charge increase, in-order first
programs on MLC, wear limits), keeps operation counters, computes raw
operation latencies via the :class:`~repro.flash.timing.LatencyModel`,
and hosts the optional fault injector.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EraseError
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

    Parameters
    ----------
    geometry:
        Shape and cell technology of the array.
    latency_model:
        Converts operations to microsecond costs.  Defaults to the
        standard NAND timing tables.
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

    def page_at(self, address: PhysicalAddress) -> FlashPage:
        """The physical page object at an address (validated)."""
        self.geometry.check(address)
        return self.chips[address.chip].blocks[address.block].pages[address.page]

    def chip_of(self, address: PhysicalAddress) -> FlashChip:
        """The chip whose pipeline executes commands for this address."""
        return self.chips[address.chip]

    def page_kind(self, address: PhysicalAddress) -> PageKind:
        """LSB or MSB kind of the page at an address."""
        return self.geometry.page_kind(address.page)

    def is_lsb(self, address: PhysicalAddress) -> bool:
        """Whether the page may receive ISPP appends (LSB pages only)."""
        return self.page_kind(address) is PageKind.LSB

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

    def read(
        self, address: PhysicalAddress, offset: int = 0, length: int | None = None
    ) -> OpResult:
        """Read ``length`` bytes of a page (whole page by default)."""
        page = self.page_at(address)
        if self.crashkit is not None:
            self.crashkit.site("flash.read")
        if length is None:
            length = self.geometry.page_size - offset
        if offset == 0 and length == len(page.data):
            data = bytes(page.data)
        else:
            data = bytes(page.data[offset : offset + length])
        kind = self.page_kind(address)
        latency = self.latency.read(self.geometry.cell_type, kind, length)
        self.stats.page_reads += 1
        self.stats.bytes_read += length
        self.stats.busy_time_us += latency
        if self.telemetry is not None:
            self.telemetry.on_flash_op(
                "read", address, self.geometry.cell_type, kind, length, latency
            )
        return OpResult(data, latency)

    def read_oob(self, address: PhysicalAddress) -> bytes:
        """Read a page's spare area (no latency accounting: piggybacks on reads)."""
        return self.page_at(address).read_oob()

    def program(self, address: PhysicalAddress, data: bytes, offset: int = 0) -> OpResult:
        """Program a page (full write or in-place ISPP append).

        The first program of an erased page is the conventional write
        path and is checked against the block's in-order rule.  Any
        later program of the same page is an ISPP re-program — the
        ``write_delta`` physical realization — and triggers the program-
        interference model on neighbouring wordlines when enabled.
        """
        page = self.page_at(address)
        block = self.chips[address.chip].blocks[address.block]
        first = not page.programmed
        if self.crashkit is not None:
            point = self.crashkit.tick("flash.program")
            if point is not None:
                changed = page.program_torn(data, offset, self.crashkit.torn_decider(point))
                if changed and first:
                    block.note_first_program(address.page, enforce_order=False)
                kind = self.page_kind(address)
                partial = self.latency.interrupted(
                    self.latency.program(self.geometry.cell_type, kind, len(data)),
                    point.fraction,
                )
                self.chip_of(address).charge(partial)
                self.stats.busy_time_us += partial
                self.crashkit.fail("flash.program", point)
        if first:
            block.note_first_program(address.page, self._ordered_programs)
        page.program(data, offset)
        kind = self.page_kind(address)
        latency = self.latency.program(self.geometry.cell_type, kind, len(data))
        self.stats.bytes_programmed += len(data)
        self.stats.busy_time_us += latency
        if first:
            self.stats.page_programs += 1
        else:
            self.stats.delta_programs += 1
            self._interfere_neighbours(address, offset, len(data))
        if self.telemetry is not None:
            self.telemetry.on_flash_op(
                "program" if first else "delta_program",
                address, self.geometry.cell_type, kind, len(data), latency,
            )
        return OpResult(None, latency)

    def program_oob(self, address: PhysicalAddress, data: bytes, offset: int = 0) -> None:
        """ISPP-append spare-area bytes (ECC codes, IPA commit marks)."""
        page = self.page_at(address)
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

    def _interfere_neighbours(self, address: PhysicalAddress, offset: int, length: int) -> None:
        """Run the program-interference model for one append."""
        if self.faults is None or self.faults.interference_rate == 0.0:
            return
        block = self.chips[address.chip].blocks[address.block]
        for neighbour_index in (address.page - 1, address.page + 1):
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
