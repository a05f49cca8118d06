"""Latency model for flash operations.

The model charges each operation a cell-array time (read / program /
erase, dependent on cell type and LSB/MSB page kind) plus a bus transfer
time proportional to the bytes moved.  It is deliberately simple: the
point (per the reproduction scoping) is to reproduce the *shape* of the
paper's latency and throughput results, which are driven by how much
work the garbage collector adds to the command pipeline, not by exact
NAND timings.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .constants import (
    ERASE_LATENCY_US,
    PROGRAM_LATENCY_US,
    READ_LATENCY_US,
    TRANSFER_US_PER_KIB,
    CellType,
    PageKind,
)


@dataclass
class LatencyModel:
    """Computes operation latencies in microseconds.

    The default tables come from :mod:`repro.flash.constants`; tests and
    benchmarks may override individual entries via the ``overrides``
    mapping keyed by ``(op, cell_type, page_kind)`` with ``op`` one of
    ``"read"``, ``"program"``, ``"erase"``.
    """

    transfer_us_per_kib: float = TRANSFER_US_PER_KIB
    overrides: dict = field(default_factory=dict)
    #: Optional telemetry probe ``(op, cell_type, kind, latency_us)``
    #: invoked for every computed latency; ``kind`` is ``None`` for
    #: erases (no page granularity).  ``None`` (the default) keeps the
    #: model observation-free with zero overhead beyond one check.
    observer: Callable[[str, CellType, PageKind | None, float], None] | None = None

    def base(self, op: str, cell_type: CellType, kind: PageKind) -> float:
        """Array time of a ``"read"`` or ``"program"`` (overrides first).

        :class:`~repro.flash.memory.FlashMemory` resolves these once per
        page kind at construction and adds the transfer term itself.
        """
        override = self.overrides.get((op, cell_type, kind))
        if override is not None:
            return override
        table = READ_LATENCY_US if op == "read" else PROGRAM_LATENCY_US
        return table[(cell_type, kind)]

    def transfer(self, num_bytes: int) -> float:
        """Bus time to move ``num_bytes`` between host and chip."""
        return self.transfer_us_per_kib * (num_bytes / 1024.0)

    def read(self, cell_type: CellType, kind: PageKind, num_bytes: int) -> float:
        """Latency of reading ``num_bytes`` from a page of the given kind."""
        latency = self.base("read", cell_type, kind) + self.transfer(num_bytes)
        if self.observer is not None:
            self.observer("read", cell_type, kind, latency)
        return latency

    def program(self, cell_type: CellType, kind: PageKind, num_bytes: int) -> float:
        """Latency of a full or partial (ISPP append) page program.

        The ISPP pulse train dominates program time regardless of how
        many bytes change, so a delta append costs the full array time
        but only the delta's transfer time — matching the paper's
        treatment of partial writes ("a partial write of 512B has the
        same latency as a write of a whole 2KB flash page").
        """
        latency = self.base("program", cell_type, kind) + self.transfer(num_bytes)
        if self.observer is not None:
            self.observer("program", cell_type, kind, latency)
        return latency

    def interrupted(self, full_latency_us: float, fraction: float) -> float:
        """Time an operation consumed before a power failure cut it short.

        ``fraction`` is the share of the ISPP pulse train (or erase
        pass) that completed; the partial cost is charged to the chip
        pipeline even though the operation never finished, so crash runs
        keep a meaningful utilization account.
        """
        return full_latency_us * min(1.0, max(0.0, fraction))

    def erase(self, cell_type: CellType) -> float:
        """Latency of a block erase."""
        override = self.overrides.get(("erase", cell_type, None))
        latency = override if override is not None else ERASE_LATENCY_US[cell_type]
        if self.observer is not None:
            self.observer("erase", cell_type, None, latency)
        return latency
