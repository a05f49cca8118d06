"""Table 2 — Comparison of IPA to IPL (Section 8.3).

OLTP traces (TPC-B, TPC-C, TATP) recorded from the engine are replayed
through the In-Page Logging simulator (the original paper's
configuration: 8 KiB DB pages, 64 x 2 KiB pages per erase unit, 8 KiB
log region, 512 B sectors) and through the IPA replay on a real
page-mapped FTL.

Paper reference (Table 2)::

                          TPC-B          TPC-C          TATP
                          IPA    IPL     IPA    IPL     IPA    IPL
    I/O Write Amplif.     0.54   1.43    0.94   1.22    0.64   1.01
    I/O Read  Amplif.     1.01   2.54    1.06   2.20    1.01   2.07
    Erases               35958 137962   41486  58294   11873  30155

i.e. IPA performs 51-60% fewer reads, 23-62% fewer writes and 29-74%
fewer erases.  Absolute counts depend on trace length; the reproduction
asserts the reductions.

The IPA replay device is given 40% spare physical space, reflecting the
paper's structural claim 2 (Section 2.1): IPL's merge count is fixed by
its per-unit log region no matter how much free space the drive has,
while IPA's GC can exploit it.
"""

import pytest

from _shared import FAST, WORKLOADS, publish
from repro.analysis import format_table
from repro.ipl import IPAReplay, IPLSimulator, replay_events

PAPER = {
    "tpcb": dict(ipa_wa=0.54, ipl_wa=1.43, ipa_ra=1.01, ipl_ra=2.54),
    "tpcc": dict(ipa_wa=0.94, ipl_wa=1.22, ipa_ra=1.06, ipl_ra=2.20),
    "tatp": dict(ipa_wa=0.64, ipl_wa=1.01, ipa_ra=1.01, ipl_ra=2.07),
}


@pytest.mark.table
def test_table02_ipl_vs_ipa(runner, benchmark):
    def experiment():
        outcome = {}
        for workload in ("tpcb", "tpcc", "tatp"):
            run = runner.trace(workload, buffer_fraction=0.10)
            events = run.trace.events
            ipl = IPLSimulator()
            replay_events(events, ipl)
            max_lpn = max(event.lpn for event in events)
            ipa = IPAReplay(
                max_lpn + 1,
                WORKLOADS[workload]["default_scheme"],
                overprovisioning=0.40,
            )
            replay_events(events, ipa)
            outcome[workload] = (ipa.summary(), ipl.summary())
        return outcome

    outcome = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for workload, (ipa, ipl) in outcome.items():
        paper = PAPER[workload]
        rows.append([
            workload,
            ipa["write_amplification"], ipl["write_amplification"],
            f"{paper['ipa_wa']}/{paper['ipl_wa']}",
            ipa["read_amplification"], ipl["read_amplification"],
            f"{paper['ipa_ra']}/{paper['ipl_ra']}",
            ipa["erases"], ipl["erases"],
        ])
    publish(
        "table02_ipl_vs_ipa",
        format_table(
            ["trace", "WA IPA", "WA IPL", "(paper)", "RA IPA", "RA IPL",
             "(paper)", "erases IPA", "erases IPL"],
            rows,
            title="Table 2: IPA vs In-Page Logging on replayed OLTP traces",
        ),
    )

    for workload, (ipa, ipl) in outcome.items():
        # IPA wins on every axis, as in the paper.  The write axis needs
        # the full run: In-Page Logging pays when a log region fills and
        # merges, and a quarter-scale TATP trace ends before most do.
        if not FAST or workload != "tatp":
            assert ipa["write_amplification"] < ipl["write_amplification"], workload
        assert ipa["read_amplification"] < ipl["read_amplification"], workload
        assert ipa["erases"] < ipl["erases"], workload
        # Read amplification: IPL roughly doubles reads (log-region
        # reads + merges); IPA stays near 1 plus GC.
        assert ipl["read_amplification"] > 1.9, workload
        assert ipa["read_amplification"] < 1.6, workload
        # Space: IPL reserves ~6.25%, IPA's [2xM] at most ~2% (claim 3).
        assert ipl["space_reserved"] > 3 * ipa["space_reserved"], workload
