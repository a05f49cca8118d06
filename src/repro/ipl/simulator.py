"""The In-Page Logging (IPL) trace simulator.

Rebuilt from the paper's Section 2.1 description and the Appendix B
accounting of the original simulator (whose traces and source the
authors obtained from Lee's group):

* every DB page keeps a 512 B in-memory log sector; update deltas are
  appended to it;
* when the sector fills, it is flushed as one partial write into the
  log region of the erase unit co-locating the page (``imlog_full``);
* when a dirty page is evicted, its log sector is flushed
  (``page_evictions``);
* when an erase unit's 8 KiB log region is full, the unit is **merged**:
  all 15 logical pages are read, combined with their logs, written to a
  fresh unit, and the old unit erased.  Merges are blocking and
  foreground (the key structural disadvantage versus IPA);
* every page fetch must also read the page's log region, doubling the
  read I/O.

The resulting amplification formulas (Appendix B)::

    WA = (merges*15*4io + imlog_full*1io + evictions*1io) / (evictions*4io)
    RA = (fetches*2*4io + merges*16*4io) / (fetches*4io)
    erases = merges
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import IPLConfig


@dataclass
class IPLStats:
    fetches: int = 0
    evictions: int = 0
    imlog_full_flushes: int = 0
    merges: int = 0

    @property
    def erases(self) -> int:
        return self.merges


class IPLSimulator:
    """Replays a buffer-level trace under In-Page Logging."""

    def __init__(self, config: IPLConfig | None = None) -> None:
        self.config = config if config is not None else IPLConfig()
        self.stats = IPLStats()
        #: lpn -> bytes accumulated in the page's in-memory log sector.
        self._sector_fill: dict[int, int] = {}
        #: erase unit -> log-region bytes consumed.
        self._log_fill: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Trace interface (see repro.ipl.ipa_replay.replay_events)
    # ------------------------------------------------------------------

    def unit_of(self, lpn: int) -> int:
        """The erase unit co-locating a logical page and its logs."""
        return lpn // self.config.db_pages_per_erase_unit

    def on_fetch(self, lpn: int) -> None:
        """One page fetch (IPL also reads the unit's log region)."""
        self.stats.fetches += 1

    def on_write(self, lpn: int, net: int, gross: int) -> None:
        """A dirty page materialization: log the delta, flush the sector.

        ``gross`` approximates the bytes the update log must carry.
        """
        cfg = self.config
        self.stats.evictions += 1
        entry = max(1, gross) + cfg.log_entry_overhead
        fill = self._sector_fill.get(lpn, 0) + entry
        # Sector overflows spill as full partial writes first.
        while fill > cfg.sector_bytes:
            self.stats.imlog_full_flushes += 1
            self._log_bytes(lpn, cfg.sector_bytes)
            fill -= cfg.sector_bytes
        # Eviction flushes the (partially filled) sector.
        self._log_bytes(lpn, cfg.sector_bytes)
        self._sector_fill[lpn] = 0

    def _log_bytes(self, lpn: int, nbytes: int) -> None:
        """Consume log-region space; merge the unit when it is full."""
        unit = self.unit_of(lpn)
        fill = self._log_fill.get(unit, 0) + nbytes
        if fill > self.config.log_region_bytes:
            self._merge(unit)
            fill = nbytes
        self._log_fill[unit] = fill

    def _merge(self, unit: int) -> None:
        """Blocking merge: rewrite all pages of the unit, erase it."""
        self.stats.merges += 1
        self._log_fill[unit] = 0

    # ------------------------------------------------------------------
    # Appendix-B accounting
    # ------------------------------------------------------------------

    @property
    def write_amplification(self) -> float:
        cfg = self.config
        io = cfg.flash_pages_per_db_page
        if self.stats.evictions == 0:
            return 0.0
        writes = (
            self.stats.merges * cfg.db_pages_per_erase_unit * io
            + self.stats.imlog_full_flushes
            + self.stats.evictions
        )
        return writes / (self.stats.evictions * io)

    @property
    def read_amplification(self) -> float:
        cfg = self.config
        io = cfg.flash_pages_per_db_page
        if self.stats.fetches == 0:
            return 0.0
        reads = (
            self.stats.fetches * 2 * io
            + self.stats.merges * (cfg.db_pages_per_erase_unit + 1) * io
        )
        return reads / (self.stats.fetches * io)

    @property
    def space_reserved_fraction(self) -> float:
        """Flash space sacrificed to log regions (paper: 6.25%)."""
        cfg = self.config
        return cfg.log_region_bytes / (cfg.pages_per_erase_unit * cfg.flash_page_size)

    def summary(self) -> dict:
        """The Table 2 row for this replay."""
        return {
            "write_amplification": self.write_amplification,
            "read_amplification": self.read_amplification,
            "erases": self.stats.erases,
            "merges": self.stats.merges,
            "imlog_full_flushes": self.stats.imlog_full_flushes,
            "space_reserved": self.space_reserved_fraction,
        }
