"""Chip-occupancy invariant under concurrent host load.

The host scheduler (:mod:`repro.hostq`) overlaps commands across
independent dies — but one die is one pipeline: the command intervals
charged to any single :class:`~repro.flash.chip.FlashChip` must never
overlap, and the chip's accumulated ``busy_time_us`` must equal the sum
of every duration it was charged (completed commands via ``occupy``
plus crash-truncated partials via ``charge``).

Property-style: every ``FlashChip`` in the process records its charged
intervals while a seeded concurrent load test runs on each backend;
the invariant is asserted per chip afterwards.  A scheduler bug that
double-books a die (dispatching to a chip whose pipeline is still
busy) fails here, whichever backend or code path produced it.
"""

import pytest

from repro.flash.chip import FlashChip
from repro.hostq import LoadTestConfig, run_loadtest
from repro.session import BACKENDS


@pytest.fixture
def chip_records(monkeypatch):
    """Record every chip's occupy/charge calls process-wide."""
    records: dict[int, dict] = {}
    real_occupy = FlashChip.occupy
    real_charge = FlashChip.charge

    def _record(chip) -> dict:
        return records.setdefault(
            id(chip), {"chip": chip, "intervals": [], "durations": []}
        )

    def occupy(self, start: float, duration_us: float) -> float:
        record = _record(self)
        end = real_occupy(self, start, duration_us)
        record["intervals"].append((start, end))
        record["durations"].append(duration_us)
        return end

    def charge(self, duration_us: float) -> None:
        real_charge(self, duration_us)
        _record(self)["durations"].append(duration_us)

    monkeypatch.setattr(FlashChip, "occupy", occupy)
    monkeypatch.setattr(FlashChip, "charge", charge)
    return records


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", (7, 23))
def test_single_chip_intervals_never_overlap(chip_records, backend, seed):
    config = LoadTestConfig(
        backend=backend,
        clients=8,
        queue_depth=8,
        requests=250,
        logical_pages=192,
        profile="tpcb",
        seed=seed,
    )
    result = run_loadtest(config)
    assert result.completed > 0

    busy_chips = 0
    for record in chip_records.values():
        intervals = record["intervals"]
        if not intervals:
            continue
        busy_chips += 1
        for (__, prev_end), (start, end) in zip(intervals, intervals[1:]):
            # One die, one pipeline: the next command may start exactly
            # when the previous ends, never before.
            assert start >= prev_end - 1e-9, (backend, intervals)
            assert end >= start
        assert record["chip"].busy_time_us == pytest.approx(
            sum(record["durations"])
        )
    # The load ran on real chips (prefill alone touches every die).
    assert busy_chips >= 2


def test_busy_time_includes_charged_partials(chip_records):
    """``charge`` adds pipeline time without advancing ``busy_until``."""
    run_loadtest(
        LoadTestConfig(backend="noftl", requests=60, logical_pages=64)
    )
    record = next(iter(chip_records.values()))
    chip = record["chip"]
    before_busy, before_until = chip.busy_time_us, chip.busy_until
    chip.charge(17.5)
    assert chip.busy_time_us == pytest.approx(before_busy + 17.5)
    assert chip.busy_until == before_until
    assert chip.busy_time_us == pytest.approx(sum(record["durations"]))
