"""Write/read amplification accounting (paper Section 8.4 + Appendix B).

Three amplification notions appear in the paper:

* **DB I/O write amplification** (Tables 4, 5) — bytes the DBMS writes
  versus bytes that actually changed:
  ``WA = Gross_Written_Data / Net_Changed_Data`` with
  ``Gross = oop_writes * page_size + delta_writes * delta_record_size``.
* **On-device write amplification** — GC page migrations and erases per
  host write (Tables 6-10 rows).
* **Trace-replay amplification** (Table 2, Appendix B) — the IPL/IPA
  formulas in 2 KiB-I/O units; implemented by the functions used from
  :mod:`repro.ipl`.
"""

from __future__ import annotations

from ..ftl.stats import DeviceStats


def db_write_amplification(gross_bytes_written: int, net_bytes_changed: int) -> float:
    """Tables 4/5: gross written bytes over net changed bytes."""
    if net_bytes_changed <= 0:
        return 0.0
    return gross_bytes_written / net_bytes_changed


def gross_written_bytes(stats: DeviceStats, page_size: int) -> float:
    """Bytes physically shipped by the DBMS's write requests.

    Out-of-place writes cost a whole page; In-Place Appends only their
    delta-record payload (the paper's ``Delta_Writes *
    Delta_Record_Size`` term).
    """
    return stats.host_page_writes * page_size + stats.bytes_delta_written


def wa_reduction_factor(
    baseline: DeviceStats,
    ipa: DeviceStats,
    page_size: int,
    baseline_net: int,
    ipa_net: int,
) -> float:
    """How many times IPA reduces DB write amplification (Table 4)."""
    wa_base = db_write_amplification(gross_written_bytes(baseline, page_size), baseline_net)
    wa_ipa = db_write_amplification(gross_written_bytes(ipa, page_size), ipa_net)
    if wa_ipa <= 0:
        return 0.0
    return wa_base / wa_ipa


def relative_change(baseline: float, value: float) -> float:
    """Percent change vs. a baseline, the paper's ``Relative [%]`` columns.

    Negative = reduction.  Returns 0 when the baseline is 0.
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (value - baseline) / baseline


def longevity_factor(baseline_erases_per_write: float, ipa_erases_per_write: float) -> float:
    """How many times device lifetime extends (erases are what wear out
    flash; Section 8.4 "Longevity of Flash Storage")."""
    if ipa_erases_per_write <= 0:
        return float("inf") if baseline_erases_per_write > 0 else 1.0
    return baseline_erases_per_write / ipa_erases_per_write


def lifetime_host_writes(
    stats: DeviceStats, total_blocks: int, endurance_cycles: int
) -> float:
    """Host writes the device can absorb before its erase budget is gone.

    The wear-out limits (100k P/E for SLC, 10k MLC, 4k TLC) bound total
    erases at ``total_blocks * endurance``; at the measured
    erases-per-host-write rate the device serves this many more write
    requests.  Assumes the wear leveler spreads erases evenly (our
    greedy policy tie-breaks on erase counts).
    """
    if stats.erases_per_host_write <= 0:
        return float("inf")
    return total_blocks * endurance_cycles / stats.erases_per_host_write
