"""Overhead guard: a telemetry-disabled run allocates zero events.

Every instrumentation site holds a ``telemetry`` handle that defaults to
``None`` and is checked before any telemetry work; with a Telemetry
attached but no bus subscribers, events are still never constructed.
These tests pin both short-circuits by patching every event class to
record construction and running a real TPC-B workload.
"""

from repro.telemetry import Telemetry
from repro.telemetry.events import EVENT_TYPES, HostIOEvent
from repro.session import SessionConfig, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig


def _count_event_allocations(monkeypatch):
    """Patch every event class so construction is recorded."""
    allocations = []

    def make_counting_init(original):
        def counting_init(self, *args, **kwargs):
            allocations.append(type(self).__name__)
            original(self, *args, **kwargs)

        return counting_init

    for cls in EVENT_TYPES:
        monkeypatch.setattr(cls, "__init__", make_counting_init(cls.__init__))
    return allocations


def _run_tpcb(telemetry=None, transactions=150):
    engine = open_session(SessionConfig(
        logical_pages=400, chips=4, buffer_pages=400, telemetry=telemetry,
    )).engine
    workload = TPCB(TPCBConfig(accounts_per_branch=2000))
    driver = load_scaled(engine, workload, buffer_fraction=0.3, seed=3)
    result = driver.run(transactions)
    assert result.transactions == transactions
    return engine


class TestNullSink:
    def test_disabled_run_allocates_no_events(self, monkeypatch):
        allocations = _count_event_allocations(monkeypatch)
        engine = _run_tpcb(telemetry=None)
        assert allocations == []
        # and nothing along the stack holds a telemetry handle
        assert engine.telemetry is None
        assert engine.device.telemetry is None
        assert engine.device.flash.telemetry is None
        assert engine.device.flash.latency.observer is None
        assert engine.ipa.telemetry is None
        assert engine.pool.telemetry is None

    def test_attached_but_unsubscribed_bus_allocates_no_events(self, monkeypatch):
        allocations = _count_event_allocations(monkeypatch)
        telemetry = Telemetry()
        _run_tpcb(telemetry=telemetry)
        assert allocations == []
        # metrics still flow: histograms are fed without any events
        assert telemetry.host_write_latency.count > 0
        assert telemetry.events.events_emitted == 0

    def test_subscriber_turns_events_back_on(self, monkeypatch):
        allocations = _count_event_allocations(monkeypatch)
        telemetry = Telemetry()
        telemetry.events.subscribe_all(lambda event: None)
        _run_tpcb(telemetry=telemetry, transactions=20)
        assert HostIOEvent.__name__ in allocations
        assert telemetry.events.events_emitted == len(allocations)
