"""Table 5 — LinkBench: space overhead and WA reduction per [N x M].

Paper reference (MySQL InnoDB, 8 KiB pages)::

    scheme   space%   WA reduction by buffer size
                      20%    50%    75%    90%
    1x100    3.67     1.67   1.54   1.38   1.35
    1x125    4.59     1.74   1.63   1.48   1.45
    2x100    7.35     2.12   1.84   1.53   1.47
    2x125    9.18     2.27   2.02   1.71   1.66
    3x100   11.02     2.42   2.01   1.59   1.52
    3x125   13.77     2.65   2.28   1.83   1.75

Shape: WA reduction grows with N and M and shrinks with buffer size
(large buffers accumulate more bytes per flush).
"""

import pytest

from _shared import FAST, publish, scheme_decisions
from repro.analysis import format_table
from repro.core import NxMScheme

PAGE_SIZE = 8192
BUFFERS = (0.20, 0.50, 0.75, 0.90)
SCHEMES = [(1, 100), (1, 125), (2, 100), (2, 125), (3, 100), (3, 125)]


def _reduction(trace, scheme) -> float:
    counts = scheme_decisions(trace, scheme)
    gross = counts.gross_written_bytes(PAGE_SIZE)
    if gross == 0:
        return 0.0
    return (counts.update_writes + counts.new_pages) * PAGE_SIZE / gross


@pytest.mark.table
def test_table05_linkbench_wa(runner, benchmark):
    def experiment():
        traces = {
            fraction: runner.trace("linkbench", buffer_fraction=fraction)
            for fraction in BUFFERS
        }
        table = {}
        for n, m in SCHEMES:
            scheme = NxMScheme(n, m)
            for fraction in BUFFERS:
                table[(n, m, fraction)] = _reduction(traces[fraction].trace, scheme)
        return table

    table = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for n, m in SCHEMES:
        scheme = NxMScheme(n, m)
        rows.append(
            [f"[{n}x{m}]", 100.0 * scheme.space_overhead(PAGE_SIZE)]
            + [table[(n, m, fraction)] for fraction in BUFFERS]
        )
    publish(
        "table05_linkbench_wa",
        format_table(
            ["scheme", "space %", "20% buf", "50% buf", "75% buf", "90% buf"],
            rows,
            title=(
                "Table 5: LinkBench space overhead and DBMS WA reduction (x)\n"
                "paper: [1x100] 1.67..1.35, [3x125] 2.65..1.75 across buffers"
            ),
        ),
    )

    for n, m in SCHEMES:
        # The reduction varies only weakly with buffer size.  (The
        # paper's InnoDB numbers decline ~19% from 20% to 90% buffers;
        # our engine's flushing economy keeps the series nearly flat —
        # see EXPERIMENTS.md for the divergence note.)
        series = [table[(n, m, fraction)] for fraction in BUFFERS]
        # Needs the full run: in a quarter-scale run the large pools have
        # not yet accumulated over-budget pages (see Figure 6), so their
        # reduction is still climbing and the series is not flat.
        if not FAST:
            assert max(series) <= min(series) * 1.35, (n, m, series)
        assert series[-1] > 1.0, (n, m)
    # More slots help at every buffer size.
    for fraction in BUFFERS:
        assert table[(3, 125, fraction)] >= table[(1, 100, fraction)], fraction
    # Space overhead ordering matches the paper's red column.
    overheads = [NxMScheme(n, m).space_overhead(PAGE_SIZE) for n, m in SCHEMES]
    assert overheads == sorted(overheads)
