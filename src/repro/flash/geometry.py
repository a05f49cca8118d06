"""Geometry of a simulated NAND flash array and physical addressing.

A flash array is organized as ``chips -> blocks -> pages``.  A physical
page is identified by a flat *physical page number* (PPN) — the one
address currency of the FTL and the flash array — and, at the
boundaries (telemetry, error messages, inspection), by the equivalent
:class:`PhysicalAddress`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AddressError
from .constants import CellType, PageKind


@dataclass(frozen=True)
class PhysicalAddress:
    """Location of one physical flash page: ``(chip, block, page)``."""

    chip: int
    block: int
    page: int

    def __str__(self) -> str:
        return f"c{self.chip}/b{self.block}/p{self.page}"


@dataclass(frozen=True)
class FlashGeometry:
    """Shape and cell technology of a flash array.

    Parameters
    ----------
    chips:
        Number of independently addressable flash chips (dies).  Chips
        operate in parallel; the latency model serializes operations per
        chip only.
    blocks_per_chip:
        Erase units per chip.
    pages_per_block:
        Physical pages per erase unit (32-256 on real devices).
    page_size:
        Data bytes per physical page.
    oob_size:
        Out-of-band (spare) bytes per page, used for ECC codes.
    cell_type:
        SLC, MLC or TLC; determines latencies, endurance, and whether
        pages split into LSB/MSB kinds.
    """

    chips: int = 4
    blocks_per_chip: int = 64
    pages_per_block: int = 64
    page_size: int = 4096
    oob_size: int = 128
    cell_type: CellType = CellType.SLC

    def __post_init__(self) -> None:
        for name in ("chips", "blocks_per_chip", "pages_per_block", "page_size"):
            if getattr(self, name) <= 0:
                raise AddressError(f"geometry field {name!r} must be positive")
        if self.oob_size < 0:
            raise AddressError("oob_size must be non-negative")
        # Derived sizes are read on every ppn split; precompute them once
        # (the dataclass is frozen, so object.__setattr__ is the
        # sanctioned backdoor).
        object.__setattr__(self, "_pages_per_chip", self.blocks_per_chip * self.pages_per_block)
        object.__setattr__(self, "_total_pages", self.chips * self._pages_per_chip)

    @property
    def pages_per_chip(self) -> int:
        return self._pages_per_chip

    @property
    def total_blocks(self) -> int:
        return self.chips * self.blocks_per_chip

    @property
    def total_pages(self) -> int:
        return self._total_pages

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size

    def page_kind(self, page_index: int) -> PageKind:
        """Kind (LSB/MSB) of the ``page_index``-th page of any block.

        SLC blocks contain only LSB pages.  On MLC/TLC we model the
        wordline pairing as even-indexed pages being LSB and odd-indexed
        pages MSB; real chips interleave the shared-wordline pages a few
        positions apart (the paper's footnote 5), but only the *kind* of
        each page matters for IPA applicability and latency.
        """
        if self.cell_type is CellType.SLC:
            return PageKind.LSB
        return PageKind.LSB if page_index % 2 == 0 else PageKind.MSB

    def ppn(self, address: PhysicalAddress) -> int:
        """Flatten a physical address into a physical page number."""
        self.check(address)
        return (
            address.chip * self._pages_per_chip
            + address.block * self.pages_per_block
            + address.page
        )

    def address(self, ppn: int) -> PhysicalAddress:
        """Inverse of :meth:`ppn`: the boundary form of a page number.

        The FTL and the flash array work on ppns; addresses are built
        only for telemetry events, error messages and inspection.
        """
        if not 0 <= ppn < self._total_pages:
            raise AddressError(f"ppn {ppn} out of range [0, {self._total_pages})")
        chip, rest = divmod(ppn, self._pages_per_chip)
        block, page = divmod(rest, self.pages_per_block)
        return PhysicalAddress(chip, block, page)

    def check(self, address: PhysicalAddress) -> None:
        """Raise :class:`AddressError` unless ``address`` is in range."""
        if not 0 <= address.chip < self.chips:
            raise AddressError(f"chip {address.chip} out of range")
        if not 0 <= address.block < self.blocks_per_chip:
            raise AddressError(f"block {address.block} out of range")
        if not 0 <= address.page < self.pages_per_block:
            raise AddressError(f"page {address.page} out of range")
