"""NoFTL regions: physically separated flash areas with their own IPA mode.

The paper (Section 5, citing [19]) lets the DBA place database objects
into *regions* — sets of flash blocks with an individual configuration —
so IPA can be applied selectively: write-hot tables into a ``pSLC``
region, colder objects into an ``odd-MLC`` region, read-mostly objects
into a region without IPA.

A region owns an exclusive set of erase units, an allocation cursor per
chip (for channel striping), and a free-block list.  The NoFTL
controller drives allocation and garbage collection through it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

from ..errors import OutOfSpaceError, RegionError
from ..flash.constants import CellType, PageKind
from ..flash.geometry import FlashGeometry
from .mapping import BlockKey


#: Blocks the allocator keeps in reserve: GC runs when fewer than this
#: many blocks' worth of erased pages remain, and every region owns this
#: many blocks on top of its logical pages plus over-provisioning.
GC_RESERVE_BLOCKS = 2


class IPAMode(Enum):
    """How a region uses In-Place Appends.

    * ``NONE`` — conventional out-of-place writes only.
    * ``NATIVE`` — SLC flash: every page accepts appends.
    * ``PSLC`` — MLC used in pseudo-SLC mode: only LSB pages are
      allocated (half the capacity), every allocated page accepts
      appends, and programming is LSB-fast.
    * ``ODD_MLC`` — full MLC capacity; appends are only possible when a
      logical page currently sits on an LSB physical page.
    """

    NONE = "none"
    NATIVE = "native"
    PSLC = "pslc"
    ODD_MLC = "odd-mlc"


@dataclass
class RegionConfig:
    """User-facing declaration of a region (the paper's ``CREATE REGION``)."""

    name: str
    logical_pages: int
    ipa_mode: IPAMode = IPAMode.NONE
    overprovisioning: float = 0.10
    #: Restrict the region to these chips (None = all chips).
    chips: list[int] | None = None


class Region:
    """Runtime state of one NoFTL region."""

    def __init__(
        self,
        config: RegionConfig,
        geometry: FlashGeometry,
        lpn_start: int,
        blocks: list[BlockKey],
    ) -> None:
        self.config = config
        self.geometry = geometry
        self.lpn_start = lpn_start
        self.lpn_end = lpn_start + config.logical_pages  # exclusive
        self.blocks = list(blocks)
        self.free_blocks: deque[BlockKey] = deque(blocks)
        #: Free blocks per chip id — the O(1) probe behind
        #: :meth:`allocate` and :meth:`peek_chip`; maintained by the two
        #: free-list mutators.
        self._free_per_chip = [0] * geometry.chips
        for chip, _ in blocks:
            self._free_per_chip[chip] += 1
        #: Erased pages still available for allocation (free blocks plus
        #: the unconsumed tails of active blocks).  This — not the free
        #: block count — drives the GC trigger, so regions whose blocks
        #: are all "active" on some chip do not starve.
        self.erased_available = len(blocks) * self.usable_pages_per_block
        #: Per-chip active block: its key, its first ppn and the next
        #: page index to hand out.
        self._active: dict[int, tuple[BlockKey, int, int]] = {}
        self._chip_cursor = 0
        #: pSLC hands out LSB pages only: every other page index.
        self._stride = 2 if config.ipa_mode is IPAMode.PSLC else 1
        self._chips = sorted({chip for chip, _ in blocks})
        if not self._chips:
            raise RegionError(f"region {config.name!r} received no blocks")
        self._validate_mode()

    def _validate_mode(self) -> None:
        mode = self.config.ipa_mode
        slc = self.geometry.cell_type is CellType.SLC
        if mode in (IPAMode.PSLC, IPAMode.ODD_MLC) and slc:
            raise RegionError(f"{mode.value} mode requires MLC/TLC flash")
        if mode is IPAMode.NATIVE and not slc:
            raise RegionError("native mode requires SLC flash")

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def ipa_mode(self) -> IPAMode:
        return self.config.ipa_mode

    @property
    def usable_pages_per_block(self) -> int:
        """Pages per block the allocator can hand out in this mode."""
        if self.config.ipa_mode is IPAMode.PSLC:
            return math.ceil(self.geometry.pages_per_block / 2)
        return self.geometry.pages_per_block

    def contains(self, lpn: int) -> bool:
        """Whether a logical page number falls inside this region."""
        return self.lpn_start <= lpn < self.lpn_end

    def appends_allowed_at(self, ppn: int) -> bool:
        """Whether a page resident at ``ppn`` may take an In-Place Append."""
        mode = self.config.ipa_mode
        if mode is IPAMode.NONE:
            return False
        if mode is IPAMode.ODD_MLC:
            return self.geometry.page_kind(ppn % self.geometry.pages_per_block) is PageKind.LSB
        # NATIVE and PSLC only ever allocate appendable pages.
        return True

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self) -> int:
        """Ppn of the next erased page, round-robin across the region's chips.

        The cursor visits each chip in turn; a chip with neither an
        open block nor a free block is skipped on the spot.  Raises
        :class:`OutOfSpaceError` when no chip has an erased page left;
        the controller must garbage-collect and retry.
        """
        chips, active, free = self._chips, self._active, self._free_per_chip
        count = len(chips)
        pages_per_block = self.geometry.pages_per_block
        for _ in range(count):
            chip = chips[self._chip_cursor]
            self._chip_cursor = (self._chip_cursor + 1) % count
            entry = active.get(chip)
            if entry is not None:
                key, base, cursor = entry
                if cursor < pages_per_block:
                    active[chip] = (key, base, cursor + self._stride)
                    self.erased_available -= 1
                    return base + cursor
                del active[chip]
            if free[chip]:
                key = self._take_free_block(chip)
                base = (chip * self.geometry.blocks_per_chip + key[1]) * pages_per_block
                active[chip] = (key, base, self._stride)
                self.erased_available -= 1
                return base
        raise OutOfSpaceError(f"region {self.name!r} has no erased pages left")

    def peek_chip(self) -> int | None:
        """The chip the next :meth:`allocate` call would target.

        A read-only round-robin probe for the host scheduler's write
        channel hint: it inspects the cursor without consuming pages or
        advancing it.  ``None`` when the region has no erased page left
        (the controller would GC first, possibly on any chip).
        """
        pages_per_block = self.geometry.pages_per_block
        for step in range(len(self._chips)):
            chip = self._chips[(self._chip_cursor + step) % len(self._chips)]
            active = self._active.get(chip)
            if active is not None and active[2] < pages_per_block:
                return chip
            if self._free_per_chip[chip] > 0:
                return chip
        return None

    def _take_free_block(self, chip: int) -> BlockKey:
        """Pop the first free block on ``chip`` (the caller checked one exists)."""
        while True:
            key = self.free_blocks.popleft()
            if key[0] == chip:
                self._free_per_chip[chip] -= 1
                return key
            self.free_blocks.append(key)

    # ------------------------------------------------------------------
    # GC bookkeeping
    # ------------------------------------------------------------------

    def active_block_keys(self) -> set[BlockKey]:
        """Blocks still open for allocation.

        A fully consumed block may linger in the per-chip cursor map
        until its chip is polled again; it is no longer *active* in the
        GC sense (erasing it is safe — nothing will be programmed into
        it), so it must be eligible as a victim.
        """
        return {
            key
            for key, _, cursor in self._active.values()
            if cursor < self.geometry.pages_per_block
        }

    def candidate_victims(self) -> list[BlockKey]:
        """Blocks eligible for garbage collection (used, not active)."""
        free = set(self.free_blocks)
        active = self.active_block_keys()
        return [key for key in self.blocks if key not in free and key not in active]

    def retire_active(self, mapping) -> BlockKey | None:
        """Close the least-valid active block so GC can victimize it.

        In small regions every block can be an open per-chip write
        block, leaving the collector without candidates even though
        plenty of stale data exists.  Real controllers handle this by
        closing (padding) an open block; we retire the one holding the
        fewest valid pages.  Its unconsumed erased tail becomes
        unavailable until the erase completes (the accounting reflects
        that), which is exactly the space the release after erase gives
        back.
        """
        best_chip = None
        best_rank: tuple[int, int] | None = None
        for chip, (key, _, cursor) in self._active.items():
            if cursor >= self.geometry.pages_per_block:
                continue  # stale entry: already a regular GC candidate
            rank = (mapping.valid_count(key), cursor)
            if best_rank is None or rank < best_rank:
                best_chip, best_rank = chip, rank
        if best_chip is None:
            return None
        key, _, cursor = self._active.pop(best_chip)
        self.erased_available -= self._remaining_usable(cursor)
        return key

    def _remaining_usable(self, cursor: int) -> int:
        remaining = max(0, self.geometry.pages_per_block - cursor)
        if self.config.ipa_mode is IPAMode.PSLC:
            return (remaining + 1) // 2
        return remaining

    def release_block(self, key: BlockKey) -> None:
        """Return an erased block to the free list."""
        self.free_blocks.append(key)
        self._free_per_chip[key[0]] += 1
        self.erased_available += self.usable_pages_per_block

    def needs_gc(self) -> bool:
        """GC when fewer than the reserve's worth of erased pages remain."""
        return self.erased_available < GC_RESERVE_BLOCKS * self.usable_pages_per_block


def blocks_needed(config: RegionConfig, geometry: FlashGeometry) -> int:
    """Erase units a region must own to host its logical pages plus OP.

    pSLC halves usable pages per block.  The reserve blocks are added on
    top so the allocator never deadlocks against the GC watermark.
    """
    per_block = geometry.pages_per_block
    if config.ipa_mode is IPAMode.PSLC:
        per_block = math.ceil(per_block / 2)
    physical_pages = math.ceil(config.logical_pages * (1.0 + config.overprovisioning))
    return math.ceil(physical_pages / per_block) + GC_RESERVE_BLOCKS
