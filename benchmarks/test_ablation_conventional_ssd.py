"""Ablation — write_delta under NoFTL vs a conventional SSD (paper §7).

"IPA can be realized on traditional SSDs, by extending the block-device
interface and the on-board controller functionality at the cost of
lower performance compared to IPA under NoFTL. However, on-device
write-amplification and longevity improvements compared to conventional
SSDs will still be significant."

We quantify all three claims on the same update stream over MLC flash
in odd-MLC mode (where ~half the pages cannot take appends):

* NoFTL: the host checks placement, falls back to a page write itself;
* BlockSSD + write_delta: the host issues deltas blindly, the device
  absorbs impossible ones as internal read-modify-writes;
* BlockSSD without write_delta: every update is a full page write.
"""

import random

import pytest

from _shared import publish
from repro.analysis import format_table
from repro.flash import CellType, FlashGeometry, FlashMemory
from repro.ftl import BlockSSD, IPAMode, single_region_device

PAGES = 384
TAIL = 256
ROUNDS = 8
PAGE_SIZE = 2048


def _geometry():
    return FlashGeometry(
        chips=4, blocks_per_chip=72, pages_per_block=32,
        page_size=PAGE_SIZE, oob_size=64, cell_type=CellType.MLC,
    )


def _image(fill):
    return bytes([fill % 251]) * (PAGE_SIZE - TAIL) + b"\xff" * TAIL


def _stream():
    rng = random.Random(11)
    for round_number in range(ROUNDS):
        for lpn in range(PAGES):
            yield lpn, round_number, bytes([rng.randrange(200)])


def _drive_noftl():
    device = single_region_device(
        FlashMemory(_geometry()), logical_pages=PAGES, ipa_mode=IPAMode.ODD_MLC,
    )
    offsets = {lpn: 0 for lpn in range(PAGES)}
    for lpn in range(PAGES):
        device.write(lpn, _image(0))
    clock = 0.0
    latency = 0.0
    for lpn, round_number, payload in _stream():
        offset = PAGE_SIZE - TAIL + offsets[lpn]
        if offsets[lpn] < TAIL and device.can_write_delta(lpn, offset, 1):
            io = device.write_delta(lpn, offset, payload, now=clock)
            offsets[lpn] += 1
        else:
            io = device.write(lpn, _image(round_number), now=clock)
            offsets[lpn] = 0
        latency += io.latency_us
        clock += io.latency_us
    stats = device.stats
    return dict(
        deltas=stats.delta_writes, pages=stats.host_page_writes,
        extra_reads=0, erases=stats.gc_erases,
        mean_write_us=latency / (ROUNDS * PAGES),
    )


def _drive_blockssd(use_delta):
    ssd = BlockSSD(FlashMemory(_geometry()), capacity_pages=PAGES,
                   ipa_mode=IPAMode.ODD_MLC)
    offsets = {lpn: 0 for lpn in range(PAGES)}
    for lpn in range(PAGES):
        ssd.write(lpn, _image(0))
    clock = 0.0
    latency = 0.0
    for lpn, round_number, payload in _stream():
        if not use_delta or offsets[lpn] >= TAIL:
            io = ssd.write(lpn, _image(round_number), now=clock)
            offsets[lpn] = 0
        else:
            io = ssd.write_delta(lpn, PAGE_SIZE - TAIL + offsets[lpn],
                                 payload, now=clock)
            offsets[lpn] += 1
        latency += io.latency_us
        clock += io.latency_us
    stats = ssd.internal.stats
    return dict(
        deltas=ssd.stats.deltas_in_place, pages=stats.host_page_writes,
        extra_reads=ssd.stats.deltas_rmw, erases=stats.gc_erases,
        mean_write_us=latency / (ROUNDS * PAGES),
    )


@pytest.mark.table
def test_ablation_conventional_ssd(benchmark):
    def experiment():
        return {
            "noftl": _drive_noftl(),
            "blockssd+delta": _drive_blockssd(True),
            "blockssd plain": _drive_blockssd(False),
        }

    outcome = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for label, data in outcome.items():
        rows.append([
            label, data["deltas"], data["pages"], data["extra_reads"],
            data["erases"], data["mean_write_us"],
        ])
    publish(
        "ablation_conventional_ssd",
        format_table(
            ["realization", "in-place appends", "page writes",
             "internal RMW reads", "GC erases", "mean write [us]"],
            rows,
            title=(
                "Ablation (paper §7): write_delta under NoFTL vs on a "
                "conventional SSD\nsame odd-MLC update stream; the plain "
                "SSD has no delta command at all"
            ),
        ),
    )

    noftl = outcome["noftl"]
    hybrid = outcome["blockssd+delta"]
    plain = outcome["blockssd plain"]
    # Both IPA realizations append the same updates in place...
    assert hybrid["deltas"] == noftl["deltas"] > 0
    # ...but the black-box device pays internal reads the host avoided.
    assert hybrid["extra_reads"] > 0 and noftl["extra_reads"] == 0
    assert hybrid["mean_write_us"] > noftl["mean_write_us"]
    # And both beat the conventional no-delta SSD on wear.
    assert plain["deltas"] == 0
    assert noftl["erases"] <= plain["erases"]
    assert hybrid["erases"] <= plain["erases"]
    assert plain["pages"] > hybrid["pages"]
