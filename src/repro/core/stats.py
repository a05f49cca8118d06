"""Counters kept by the IPA manager.

Like :class:`~repro.ftl.stats.DeviceStats`, :class:`IPAStats` is a
plain dataclass; attached telemetry exports its fields as read-through
registry counters named ``ipa_*``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

from ..telemetry.metrics import counter_field


@dataclass(slots=True)
class IPAStats:
    """Flush-path outcomes of one engine run.

    Field semantics (see also the help strings):

    * ``ipa_flushes`` — flushes materialized as In-Place Appends (one
      ``write_delta`` each); ``oop_flushes`` — full out-of-place page
      writes; ``skipped_flushes`` — dirty flushes whose tracked diff
      was empty (no I/O at all).
    * ``device_fallbacks`` — IPA attempts rejected by the device (e.g.
      MSB residency under odd-MLC) that fell back to an out-of-place
      write; ``budget_overflows`` — flushes that went out-of-place
      because the tracked changes overflowed the [N x M] budget.
    """

    PREFIX: ClassVar[str] = "ipa_"
    ipa_flushes: int = counter_field("Flushes materialized as In-Place Appends")
    oop_flushes: int = counter_field("Flushes written out-of-place (full page writes)")
    skipped_flushes: int = counter_field("Dirty flushes with an empty tracked diff: no I/O")
    delta_records_written: int = counter_field("Delta records written across all IPA flushes")
    delta_bytes_written: int = counter_field("Payload bytes of all delta records")
    device_fallbacks: int = counter_field("IPA attempts rejected by the device")
    budget_overflows: int = counter_field(
        "Flushes gone out-of-place on [N x M] budget overflow")
    ecc_corrected_bits: int = counter_field("Bits corrected by ECC during loads")

    @property
    def flushes(self) -> int:
        """All flushes: IPA + out-of-place + skipped."""
        return self.ipa_flushes + self.oop_flushes + self.skipped_flushes

    @property
    def ipa_fraction(self) -> float:
        """Fraction of update I/Os performed as In-Place Appends.

        The denominator excludes skipped flushes — those never reach
        the device, matching the paper's "Out-of-Place Writes vs.
        In-Place Appends" rows, which split actual write requests.
        """
        writes = self.ipa_flushes + self.oop_flushes
        return self.ipa_flushes / writes if writes else 0.0

    def snapshot(self) -> dict:
        """Plain-dict copy including the derived IPA fraction."""
        data = asdict(self)
        data["ipa_fraction"] = self.ipa_fraction
        return data
