"""Figure 6 — fraction of LinkBench update I/Os performed as IPA.

The paper plots the IPA share against the buffer size (20-90%) for
several [N x M] schemes; Table 3's LinkBench panel carries the 75%
column.  Shape: more slots (N) and larger M raise the share; larger
buffers lower it (update accumulation), with 30-76% overall.
"""

import pytest

from _shared import FAST, publish, scheme_decisions
from repro.analysis import format_table
from repro.core import NxMScheme

BUFFERS = (0.20, 0.50, 0.75, 0.90)
SCHEMES = [(1, 100), (2, 100), (2, 125), (3, 125)]


@pytest.mark.figure
def test_figure06_linkbench_ipa_fraction(runner, benchmark):
    def experiment():
        shares = {}
        for fraction in BUFFERS:
            run = runner.trace("linkbench", buffer_fraction=fraction)
            for n, m in SCHEMES:
                counts = scheme_decisions(run.trace, NxMScheme(n, m))
                shares[(n, m, fraction)] = 100.0 * counts.ipa_fraction
        return shares

    shares = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for n, m in SCHEMES:
        rows.append([f"[{n}x{m}]"] + [shares[(n, m, f)] for f in BUFFERS])
    publish(
        "figure06_linkbench_ipa_fraction",
        format_table(
            ["scheme"] + [f"{int(f * 100)}% buf" for f in BUFFERS],
            rows,
            title=(
                "Figure 6: LinkBench update I/Os performed as IPA [%]\n"
                "paper band: 30-76% across schemes and buffers"
            ),
        ),
    )

    for fraction in BUFFERS:
        # More slots / bigger records -> more appends.
        assert shares[(3, 125, fraction)] >= shares[(1, 100, fraction)]
    for n, m in SCHEMES:
        series = [shares[(n, m, f)] for f in BUFFERS]
        # Larger buffers accumulate updates: share does not grow.  Needs
        # the full run: a page has to stay buffered long enough to gather
        # more changes than a scheme absorbs, and a quarter-scale run ends
        # before the large pools get there.
        if not FAST:
            assert series[0] >= series[-1] - 8.0, (n, m, series)
    # The workable band of the paper.
    assert shares[(2, 125, 0.20)] > 25.0
