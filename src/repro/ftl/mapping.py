"""Page-level logical-to-physical address mapping.

The paper's emulated device uses a page-level mapping scheme ("the most
efficient for OLTP workloads", Section 8.4); this module implements it
with full forward (L2P) and reverse (P2L) maps plus per-block valid-page
counts, which the garbage collector's victim selection needs.
"""

from __future__ import annotations

from ..errors import MappingError
from ..flash.geometry import FlashGeometry, PhysicalAddress

#: Key identifying one erase unit: ``(chip, block)``.
BlockKey = tuple[int, int]


class PageMapping:
    """Forward/reverse page map with per-block valid counters."""

    def __init__(self, geometry: FlashGeometry) -> None:
        self._geometry = geometry
        self._pages_per_chip = geometry.pages_per_chip
        self._l2p: dict[int, int] = {}
        self._p2l: dict[int, int] = {}
        self._valid_per_block: dict[BlockKey, int] = {}

    def __contains__(self, lpn: int) -> bool:
        return lpn in self._l2p

    def __len__(self) -> int:
        return len(self._l2p)

    @property
    def pages_per_block(self) -> int:
        """Physical pages per erase unit (a block's full valid count)."""
        return self._geometry.pages_per_block

    def lookup(self, lpn: int) -> PhysicalAddress:
        """Physical location of a logical page; raises if unmapped."""
        ppn = self._l2p.get(lpn)
        if ppn is None:
            raise MappingError(f"logical page {lpn} has never been written")
        return self._geometry.address(ppn)

    def chip_of(self, lpn: int) -> int | None:
        """Chip currently hosting a logical page, or ``None`` if unmapped.

        The scheduler's read-channel hint: one dict probe plus integer
        division, with no :class:`PhysicalAddress` construction.
        """
        ppn = self._l2p.get(lpn)
        if ppn is None:
            return None
        return ppn // self._pages_per_chip

    def reverse(self, address: PhysicalAddress) -> int | None:
        """Logical page stored at a physical address, or None if stale/free."""
        return self._p2l.get(self._geometry.ppn(address))

    def bind(self, lpn: int, address: PhysicalAddress) -> PhysicalAddress | None:
        """Point ``lpn`` at a new physical page.

        Returns the previous physical address (now stale) or ``None``
        if this is the first write of the logical page.
        """
        ppn = self._geometry.ppn(address)
        old_ppn = self._l2p.get(lpn)
        old_address = None
        if old_ppn is not None:
            old_address = self._geometry.address(old_ppn)
            self._invalidate_ppn(old_ppn, old_address)
        self._l2p[lpn] = ppn
        self._p2l[ppn] = lpn
        key = (address.chip, address.block)
        self._valid_per_block[key] = self._valid_per_block.get(key, 0) + 1
        return old_address

    def unbind(self, lpn: int) -> PhysicalAddress | None:
        """Drop the mapping of a logical page (TRIM); returns stale address."""
        ppn = self._l2p.pop(lpn, None)
        if ppn is None:
            return None
        address = self._geometry.address(ppn)
        self._invalidate_ppn(ppn, address)
        return address

    def valid_count(self, key: BlockKey) -> int:
        """Number of valid (live) pages currently stored in a block."""
        return self._valid_per_block.get(key, 0)

    def valid_pages_in_block(self, key: BlockKey) -> list[tuple[int, PhysicalAddress]]:
        """All ``(lpn, address)`` pairs of live pages inside one block."""
        chip, block = key
        pages_per_block = self._geometry.pages_per_block
        base = PhysicalAddress(chip, block, 0)
        base_ppn = self._geometry.ppn(base)
        result = []
        for page_index in range(pages_per_block):
            lpn = self._p2l.get(base_ppn + page_index)
            if lpn is not None:
                result.append((lpn, PhysicalAddress(chip, block, page_index)))
        return result

    def block_emptied(self, key: BlockKey) -> None:
        """Assert a block holds no valid data before it is erased."""
        if self._valid_per_block.get(key, 0) != 0:
            raise MappingError(f"block {key} still holds valid pages")
        self._valid_per_block.pop(key, None)

    def _invalidate_ppn(self, ppn: int, address: PhysicalAddress) -> None:
        self._p2l.pop(ppn, None)
        key = (address.chip, address.block)
        count = self._valid_per_block.get(key, 0)
        if count <= 0:
            raise MappingError(f"valid count underflow on block {key}")
        self._valid_per_block[key] = count - 1
