"""Clock abstraction and resumable storage programs.

The refactor contract: the same engine code charges time through a
:class:`~repro.storage.clock.Clock`, and the same generator-shaped
operations run synchronously (:func:`run_on_clock`) or one command at a
time under a scheduler.
"""

import pytest

from repro.session import SessionConfig, open_device
from repro.storage import (
    Clock,
    DeferredClock,
    DeviceCommand,
    EngineConfig,
    OpKind,
    ScalarClock,
    StorageEngine,
    run_on_clock,
)
from repro.storage.buffer import BufferPool
from repro.storage.page_layout import SlottedPage


def _prefilled_device(pages=32):
    device = open_device(SessionConfig(logical_pages=pages))
    for lpn in range(pages):
        device.write(lpn, bytes(SlottedPage.format(lpn, device.page_size).image), 0.0)
    device.reset_stats()
    return device


def _engine(buffer_pages, clock=None):
    return StorageEngine(
        _prefilled_device(), EngineConfig(buffer_pages=buffer_pages), clock=clock
    )


class TestScalarClock:
    def test_advance_moves_now_immediately(self):
        clock = ScalarClock(10.0)
        clock.advance(5.0)
        assert clock.now == 15.0
        assert clock.take_pending() == 0.0  # scalar time never defers

    def test_sync_to_is_monotone(self):
        clock = ScalarClock(10.0)
        clock.sync_to(25.0)
        assert clock.now == 25.0
        clock.sync_to(5.0)  # never moves backwards
        assert clock.now == 25.0


class TestDeferredClock:
    def test_advance_accrues_instead_of_moving(self):
        clock = DeferredClock(100.0)
        clock.advance(3.0)
        clock.advance(4.0)
        assert clock.now == 100.0  # an external event loop owns `now`
        assert clock.pending_us == 7.0

    def test_take_pending_drains(self):
        clock = DeferredClock()
        clock.advance(2.5)
        assert clock.take_pending() == 2.5
        assert clock.take_pending() == 0.0

    def test_sync_to_follows_the_scheduler(self):
        clock = DeferredClock()
        clock.advance(9.0)
        clock.sync_to(50.0)
        assert clock.now == 50.0
        assert clock.pending_us == 9.0  # pending survives syncs


def _two_command_program(log):
    first = DeviceCommand(OpKind.READ, lpn=3, run=lambda at: log.append(("r", at)) or 10.0)
    latency = yield first
    second = DeviceCommand(OpKind.WRITE, lpn=3, run=lambda at: log.append(("w", at)) or 20.0)
    latency += yield second
    return latency


class TestProgramDrivers:
    def test_pool_fetch_runs_commands_back_to_back(self):
        # A miss on a full pool yields the victim's write-back, then the
        # read; both run from the caller's ``now``, one after the other.
        log = []

        def loader(lpn, at):
            log.append(("r", lpn, at))
            return SlottedPage.format(lpn, 512, 0), 0, 10.0

        def flusher(frame, at):
            log.append(("w", frame.lpn, at))
            return "oop", 20.0

        pool = BufferPool(1, loader, flusher)
        pool.fetch(3, 0.0)
        pool.unpin(3, dirty=True)
        frame, latency = pool.fetch(4, 100.0)
        assert log == [("r", 3, 0.0), ("w", 3, 100.0), ("r", 4, 120.0)]
        assert (frame.lpn, latency) == (4, 30.0)

    def test_run_on_clock_charges_the_clock(self):
        log = []
        clock = ScalarClock(100.0)
        result = run_on_clock(_two_command_program(log), clock)
        assert log == [("r", 100.0), ("w", 110.0)]
        assert result == 30.0
        assert clock.now == 130.0

    def test_deferred_clock_defers_command_latency(self):
        log = []
        clock = DeferredClock(100.0)
        result = run_on_clock(_two_command_program(log), clock)
        # Under a deferred clock both commands observe the frozen `now`:
        # a scheduler (not run_on_clock) is supposed to move time.
        assert log == [("r", 100.0), ("w", 100.0)]
        assert result == 30.0
        assert clock.now == 100.0
        assert clock.take_pending() == 30.0


class TestEngineClockWiring:
    def test_engine_clock_is_a_read_only_view(self):
        engine = _engine(buffer_pages=8)
        assert engine.clock == engine._clock.now
        with pytest.raises(AttributeError):
            engine.clock = 123.0

    def test_injected_clock_is_shared(self):
        clock = ScalarClock(0.0)
        engine = _engine(buffer_pages=8, clock=clock)
        assert engine._clock is clock
        frame = engine.pin(0)
        engine.pool.unpin(0, dirty=False)
        assert frame is not None
        assert engine.clock == clock.now > 0.0

    def test_default_clock_matches_injected_scalar(self):
        # The refactor's standalone guarantee: an explicit ScalarClock
        # is bit-identical to the engine's own default.
        def drive(engine):
            txn = engine.begin()
            for lpn in (0, 1, 2, 1, 0):
                engine.pin(lpn)
                engine.pool.unpin(lpn, dirty=False)
                engine.charge_cpu()
            engine.commit(txn)
            return engine.clock, engine.stats_summary()

        default = drive(_engine(buffer_pages=4))
        injected = drive(_engine(buffer_pages=4, clock=ScalarClock()))
        assert default == injected

    def test_base_clock_contract(self):
        clock = Clock()
        with pytest.raises(NotImplementedError):
            clock.advance(1.0)
