"""Page-level logical-to-physical address mapping.

The paper's emulated device uses a page-level mapping scheme ("the most
efficient for OLTP workloads", Section 8.4); this module implements it
with full forward (L2P) and reverse (P2L) maps plus per-block valid-page
counts, which the garbage collector's victim selection needs.
"""

from __future__ import annotations

from ..errors import MappingError
from ..flash.geometry import FlashGeometry

#: Key identifying one erase unit: ``(chip, block)``.
BlockKey = tuple[int, int]


class PageMapping:
    """Forward/reverse page map with per-block valid counters.

    Physical pages are flat page numbers (ppns, see
    :meth:`FlashGeometry.ppn`).  The reverse map and the valid counts
    are flat lists sized once from the geometry: P2L is indexed by ppn
    (``-1`` marks a free or stale page) and the counts by global block
    number ``ppn // pages_per_block``.  L2P is a dict, since only
    written logical pages have an entry.
    """

    def __init__(self, geometry: FlashGeometry) -> None:
        self._pages_per_chip = geometry.pages_per_chip
        self._pages_per_block = geometry.pages_per_block
        self._blocks_per_chip = geometry.blocks_per_chip
        self._l2p: dict[int, int] = {}
        self._p2l = [-1] * geometry.total_pages
        self._valid = [0] * geometry.total_blocks

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._l2p

    def __len__(self) -> int:
        return len(self._l2p)

    @property
    def pages_per_block(self) -> int:
        """Physical pages per erase unit (a block's full valid count)."""
        return self._pages_per_block

    def lookup(self, lpn: int) -> int:
        """Ppn of a logical page's current home; raises if unmapped."""
        ppn = self._l2p.get(lpn)
        if ppn is None:
            raise MappingError(f"logical page {lpn} has never been written")
        return ppn

    def chip_of(self, lpn: int) -> int | None:
        """Chip currently hosting a logical page, or ``None`` if unmapped.

        The scheduler's read-channel hint: one dict probe plus integer
        division.
        """
        ppn = self._l2p.get(lpn)
        if ppn is None:
            return None
        return ppn // self._pages_per_chip

    def reverse(self, ppn: int) -> int | None:
        """Logical page stored at a ppn, or None if stale/free."""
        lpn = self._p2l[ppn]
        return None if lpn < 0 else lpn

    def bind(self, lpn: int, ppn: int) -> int | None:
        """Point ``lpn`` at a new physical page.

        Returns the previous ppn (now stale) or ``None`` if this is the
        first write of the logical page.
        """
        old = self._l2p.get(lpn)
        if old is not None:
            self._invalidate(old)
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        self._valid[ppn // self._pages_per_block] += 1
        return old

    def unbind(self, lpn: int) -> int | None:
        """Drop the mapping of a logical page (TRIM); returns the stale ppn."""
        ppn = self._l2p.pop(lpn, None)
        if ppn is not None:
            self._invalidate(ppn)
        return ppn

    def valid_count(self, key: BlockKey) -> int:
        """Number of valid (live) pages currently stored in a block."""
        return self._valid[key[0] * self._blocks_per_chip + key[1]]

    def valid_pages_in_block(self, key: BlockKey) -> list[tuple[int, int]]:
        """All ``(lpn, ppn)`` pairs of live pages inside one block, in page order."""
        base = (key[0] * self._blocks_per_chip + key[1]) * self._pages_per_block
        p2l = self._p2l
        return [
            (p2l[ppn], ppn)
            for ppn in range(base, base + self._pages_per_block)
            if p2l[ppn] >= 0
        ]

    def block_emptied(self, key: BlockKey) -> None:
        """Assert a block holds no valid data before it is erased."""
        if self.valid_count(key) != 0:
            raise MappingError(f"block {key} still holds valid pages")

    def _invalidate(self, ppn: int) -> None:
        self._p2l[ppn] = -1
        block = ppn // self._pages_per_block
        if self._valid[block] <= 0:
            chip, index = divmod(block, self._blocks_per_chip)
            raise MappingError(f"valid count underflow on block {(chip, index)}")
        self._valid[block] -= 1
