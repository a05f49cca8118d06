"""NAND flash array simulator with ISPP in-place append semantics.

This package is the lowest substrate of the reproduction: a bit-accurate
model of NAND flash in which program operations may only add charge
(clear bits), erases work on whole blocks, MLC wordlines pair LSB/MSB
pages, blocks wear out, and every operation has a latency.

Public surface::

    from repro.flash import FlashGeometry, FlashMemory, CellType

    mem = FlashMemory(FlashGeometry(chips=2, page_size=4096))
    ppn = mem.geometry.ppn(PhysicalAddress(chip=1, block=0, page=0))
    mem.program(ppn, b"hello".ljust(4096, b"\xff"))
    mem.program(ppn, b"\x00\x01", offset=4000)   # in-place append
"""

from .constants import CellType, PageKind, ENDURANCE_CYCLES, ERASED_BYTE
from .ecc import CODE_SIZE, EccSegment, SegmentedEcc, compute_code, correct
from .faults import FaultInjector
from .geometry import FlashGeometry, PhysicalAddress
from .memory import FlashMemory, FlashStats, OpResult
from .timing import LatencyModel
from . import ispp

__all__ = [
    "CellType",
    "PageKind",
    "ENDURANCE_CYCLES",
    "ERASED_BYTE",
    "CODE_SIZE",
    "EccSegment",
    "SegmentedEcc",
    "compute_code",
    "correct",
    "FaultInjector",
    "FlashGeometry",
    "PhysicalAddress",
    "FlashMemory",
    "FlashStats",
    "OpResult",
    "LatencyModel",
    "ispp",
]
