"""The IPA advisor: derive [N x M] parameters from a workload profile.

Section 8.4: "An IPA advisor automates the choice of the appropriate
M, N and V values, letting the DBA weight the general optimization
goals: (i) performance; (ii) longevity; (iii) space consumption.  The
IPA advisor is based on a background DB log-file profiling mechanism."

This implementation profiles either an
:class:`~repro.analysis.cdf.UpdateSizeCollector` (live engine hook) or
a recorded trace, and recommends a scheme per optimization goal:

* ``space``     — cover the median update (small M, small area);
* ``balanced``  — cover ~70% of updates;
* ``longevity`` — cover ~90% of updates (fewest erases, most space).

N comes from the flash technology (more ISPP passes are safe on SLC
than on MLC; Section 8.4 selects 2-3 "primarily based on Flash
specifics") and is then trimmed to the space budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import IPAError
from ..flash.constants import CellType
from ..analysis.cdf import percentile_at_most, value_at_percentile
from .scheme import NxMScheme

#: Target coverage percentile per optimization goal.
GOAL_COVERAGE = {
    "space": 50.0,
    "balanced": 70.0,
    "longevity": 90.0,
}

#: Safe number of subsequent ISPP append passes per technology.
MAX_APPENDS = {
    CellType.SLC: 4,
    CellType.MLC: 2,
    CellType.TLC: 2,
}

#: The paper's practical cap on M (Section 6.1, Appendix A).
M_CAP = 125


@dataclass(frozen=True)
class Recommendation:
    """Advisor output: a scheme plus its predicted behaviour."""

    scheme: NxMScheme
    goal: str
    expected_ipa_fraction: float
    space_overhead: float
    covered_percentile: float

    def __str__(self) -> str:
        return (
            f"{self.scheme} V={self.scheme.v} ({self.goal}): "
            f"~{self.expected_ipa_fraction * 100:.0f}% IPA, "
            f"{self.space_overhead * 100:.1f}% space"
        )


class IPAAdvisor:
    """Suggests [N x M] schemes from observed update-size samples."""

    def __init__(
        self,
        net_sizes: list[int],
        meta_sizes: list[int] | None = None,
        cell_type: CellType = CellType.SLC,
        page_size: int = 4096,
    ) -> None:
        if not net_sizes:
            raise IPAError("advisor needs at least one update sample")
        self.net_sizes = list(net_sizes)
        self.meta_sizes = list(meta_sizes) if meta_sizes else [8] * len(net_sizes)
        self.cell_type = cell_type
        self.page_size = page_size

    @classmethod
    def from_collector(cls, collector, cell_type=CellType.SLC, page_size=4096) -> "IPAAdvisor":
        """Build from an :class:`~repro.analysis.cdf.UpdateSizeCollector`."""
        meta = [
            max(0, g - n) for n, g in zip(collector.net_sizes, collector.gross_sizes)
        ]
        return cls(collector.net_sizes, meta, cell_type=cell_type, page_size=page_size)

    # ------------------------------------------------------------------

    def recommend(
        self,
        goal: str = "balanced",
        space_budget: float = 0.05,
    ) -> Recommendation:
        """Suggest a scheme for a goal under a space budget (fraction)."""
        if goal not in GOAL_COVERAGE:
            raise IPAError(f"unknown goal {goal!r}; pick from {sorted(GOAL_COVERAGE)}")
        coverage = GOAL_COVERAGE[goal]
        positive = [s for s in self.net_sizes if s > 0] or [1]
        m = min(M_CAP, max(1, value_at_percentile(positive, coverage)))
        v = min(64, max(2, value_at_percentile(self.meta_sizes, 99.0)))
        n = MAX_APPENDS[self.cell_type]
        scheme = NxMScheme(n, m, v)
        # Trim N, then M, to respect the space budget.
        while n > 1 and scheme.space_overhead(self.page_size) > space_budget:
            n -= 1
            scheme = NxMScheme(n, m, v)
        while m > 1 and scheme.space_overhead(self.page_size) > space_budget:
            m = max(1, m // 2)
            scheme = NxMScheme(n, m, v)
        return Recommendation(
            scheme=scheme,
            goal=goal,
            expected_ipa_fraction=self.estimate_ipa_fraction(scheme),
            space_overhead=scheme.space_overhead(self.page_size),
            covered_percentile=percentile_at_most(positive, scheme.m),
        )

    def recommend_all(self, space_budget: float = 0.05) -> dict[str, Recommendation]:
        """One recommendation per optimization goal."""
        return {goal: self.recommend(goal, space_budget) for goal in GOAL_COVERAGE}

    # ------------------------------------------------------------------

    def recommend_placement(
        self,
        samples_by_object: dict[str, list[int]],
        goal: str = "balanced",
        space_budget: float = 0.05,
        min_ipa_fraction: float = 0.30,
    ) -> dict[str, Recommendation | None]:
        """Per-object region placement (paper Section 5 + contribution II).

        "Write-intensive tables or indexes dominated by small updates
        can be placed in a region which uses pSLC as IPA mode ...
        Read-only objects or objects dominated by large updates can be
        placed in yet another region, which does not utilize IPA."

        For each object's update-size profile, a per-object advisor
        recommends a scheme; objects whose predicted IPA fraction falls
        below ``min_ipa_fraction`` (or that see no updates at all) map
        to ``None`` — leave them in a conventional region and pay no
        delta-area space for them.
        """
        placement: dict[str, Recommendation | None] = {}
        for name, sizes in samples_by_object.items():
            positive = [s for s in sizes if s > 0]
            if not positive:
                placement[name] = None
                continue
            advisor = IPAAdvisor(
                positive, cell_type=self.cell_type, page_size=self.page_size
            )
            recommendation = advisor.recommend(goal, space_budget)
            if recommendation.expected_ipa_fraction < min_ipa_fraction:
                placement[name] = None
            else:
                placement[name] = recommendation
        return placement

    def estimate_ipa_fraction(self, scheme: NxMScheme) -> float:
        """Predict the fraction of update I/Os served as appends.

        Model: a page alternates between one out-of-place write (which
        resets the slots) and as many appends as the budget allows.  An
        update of ``net`` bytes needs ``ceil(net/M)`` records, so per
        observed sample we charge its record need and count how many of
        a random stream fit before the reset — a stationary renewal
        estimate validated against engine runs in the test suite.
        """
        if not scheme.enabled:
            return 0.0
        slots = 0
        appends = 0
        writes = 0
        for net, meta in zip(self.net_sizes, self.meta_sizes):
            writes += 1
            if net + meta == 0:
                continue
            if scheme.fits(net, meta, slots):
                appends += 1
                slots += scheme.records_needed(net, meta)
            else:
                slots = 0
        return appends / writes if writes else 0.0
