"""A NAND erase unit (block) of consecutive flash pages."""

from __future__ import annotations

from ..errors import ProgramOrderError, WearOutError
from .constants import ENDURANCE_CYCLES, CellType
from .page import FlashPage


class FlashBlock:
    """An erase unit: the granularity of the erase operation.

    Real MLC chips require the pages of a block to be programmed in
    increasing order ("in-order programming", Appendix C of the paper)
    to bound program interference.  The block tracks the highest page
    whose *first* program has happened and rejects out-of-order first
    programs; ISPP re-programs (delta appends) of already-programmed
    pages are exempt, which is precisely the loophole IPA uses.
    """

    __slots__ = ("pages", "erase_count", "_highest_programmed", "_cell_type", "_endurance")

    def __init__(
        self,
        pages_per_block: int,
        page_size: int,
        oob_size: int,
        cell_type: CellType = CellType.SLC,
        endurance: int | None = None,
    ) -> None:
        self.pages = [FlashPage(page_size, oob_size) for _ in range(pages_per_block)]
        self.erase_count = 0
        self._highest_programmed = -1
        self._cell_type = cell_type
        self._endurance = endurance if endurance is not None else ENDURANCE_CYCLES[cell_type]

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def cell_type(self) -> CellType:
        return self._cell_type

    @property
    def endurance(self) -> int:
        return self._endurance

    @property
    def worn_out(self) -> bool:
        return self.erase_count >= self._endurance

    def note_first_program(self, page_index: int, enforce_order: bool = True) -> None:
        """Record the first program of a page, checking in-order writes.

        Called by :class:`~repro.flash.memory.FlashMemory` before the
        initial program of an erased page.  Re-programs (appends) never
        call this.
        """
        if enforce_order and page_index < self._highest_programmed:
            raise ProgramOrderError(
                f"page {page_index} first-programmed after page "
                f"{self._highest_programmed} in the same block"
            )
        if page_index > self._highest_programmed:
            self._highest_programmed = page_index

    def erase(self) -> None:
        """Erase every page in the block and bump the wear counter."""
        if self.worn_out:
            raise WearOutError(
                f"block exceeded endurance of {self._endurance} P/E cycles"
            )
        for page in self.pages:
            page.erase()
        self.erase_count += 1
        self._highest_programmed = -1

    def erase_torn(self, decide) -> int:
        """Apply an *interrupted* erase: only a subset of pages cleared.

        Power was cut mid-erase.  Each page reverts to all-``0xFF`` only
        when ``decide()`` returns True; the rest keep their charge.  The
        operation never completed, so the wear counter does not advance
        and ``highest_programmed`` is retained — the block must still be
        treated as in use until a full :meth:`erase` succeeds.  Returns
        the number of pages that did get cleared.
        """
        cleared = 0
        for page in self.pages:
            if decide():
                page.erase()
                cleared += 1
        return cleared

    def valid_erased_pages(self) -> int:
        """Number of still-unprogrammed pages (free for allocation)."""
        return sum(1 for page in self.pages if not page.programmed)
