"""Overhead guard: a telemetry-disabled run makes zero telemetry calls.

Every instrumentation site holds a ``telemetry`` handle that defaults to
``None`` and is checked before any telemetry work, and the stats objects
own plain counter fields the registry only reads once bound.  So with
``telemetry=None`` no function defined under ``repro/telemetry/`` runs
at all — pinned by profiling a device script and a real TPC-B run.
With a Telemetry attached but no bus subscribers, events are still
never constructed — pinned by patching every event class to record
construction, over a real run and over a direct call of every
``Telemetry.on_*`` hook, the only place events are emitted.
"""

import ast
import cProfile
from pathlib import Path

import pytest

import repro.telemetry
from repro.telemetry import Telemetry
from repro.flash import CellType, PageKind, PhysicalAddress
from repro.telemetry.events import EVENT_TYPES, HostIOEvent
from repro.session import BACKENDS, SessionConfig, open_device, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig

TELEMETRY_DIR = Path(repro.telemetry.__file__).resolve().parent


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


def _telemetry_calls(run):
    """``{function: calls}`` of every Python function defined under
    ``repro/telemetry/`` that ``run()`` entered."""
    profiler = cProfile.Profile()
    profiler.runcall(run)
    return {
        f"{entry.code.co_filename}:{entry.code.co_name}": entry.callcount
        for entry in profiler.getstats()
        if not isinstance(entry.code, str)
        and TELEMETRY_DIR in Path(entry.code.co_filename).resolve().parents
    }


def _device_script(backend):
    """Writes, in-place appends and reads over a small device until GC runs."""
    device = open_device(SessionConfig(
        backend=backend, logical_pages=64, chips=2, page_size=512, pages_per_block=8,
    ))
    page_size = device.page_size
    image = b"\x21" * (page_size - 64) + b"\xff" * 64
    for round_ in range(12):
        for lpn in range(device.logical_pages):
            device.write(lpn, image)
            device.write_delta(lpn, page_size - 64 + round_ % 8, b"\x01")
            device.read(lpn)
    assert device.snapshot()["gc_erases"] > 0


class TestNullSink:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_disabled_device_makes_no_telemetry_calls(self, backend):
        assert _telemetry_calls(lambda: _device_script(backend)) == {}

    def test_disabled_run_makes_no_telemetry_calls(self):
        assert _telemetry_calls(_run_tpcb) == {}

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


#: Arguments for every ``Telemetry.on_*`` hook, one call per entry.
_ADDRESS = PhysicalAddress(0, 1, 2)
_HOOK_CALLS = {
    "on_raw_latency": [("program", CellType.SLC, PageKind.LSB, 200.0)],
    "on_flash_op": [("program", _ADDRESS, CellType.SLC, PageKind.LSB, 64, 200.0)],
    "on_host_read": [(1, 4096, 50.0)],
    "on_host_write": [(1, 4096, 200.0)],
    "on_write_delta": [(1, 32, 100.0)],
    "on_gc_trigger": [("default", 3)],
    "on_gc_victim": [("default", (0, 1), 2, 5)],
    "on_gc_migration": [("default", 1, _ADDRESS, PhysicalAddress(1, 0, 0))],
    "on_gc_erase": [("default", (0, 1), 900.0)],
    "on_flush": [
        (1, kind, 2, 3, False, False, False, 1, 1, 16, 100.0)
        for kind in ("ipa", "oop", "new", "skip")
    ],
    "on_buffer": [
        (action, 1)
        for action in ("miss", "evict", "evict_flush", "cleaner_flush")
    ],
}


class TestEveryHookIsGuarded:
    """The event-bus contract, checked at run time for every hook: an
    attached but unsubscribed bus constructs no event, on any path."""

    def test_every_hook_on_an_unsubscribed_bus_allocates_no_events(self, monkeypatch):
        allocations = _count_event_allocations(monkeypatch)
        telemetry = Telemetry()
        telemetry.attach_device(open_device(SessionConfig(logical_pages=64, chips=2)))
        hooks = {name for name in dir(Telemetry) if name.startswith("on_")}
        assert hooks == set(_HOOK_CALLS)
        for name, calls in _HOOK_CALLS.items():
            for args in calls:
                getattr(telemetry, name)(*args)
        assert allocations == []
        assert telemetry.events.events_emitted == 0

    def test_only_the_telemetry_hooks_emit(self):
        """Events are built in one module, whose hooks the test above
        runs; an ``.emit(`` call anywhere else would escape it."""
        src = TELEMETRY_DIR.parent
        others = set(src.rglob("*.py")) - {TELEMETRY_DIR / "__init__.py"}
        emitters = sorted(
            f"{path.relative_to(src)}:{node.lineno}"
            for path in others
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
        )
        assert emitters == []


class TestAttachedHooks:
    def test_repeated_buffer_event_does_no_registry_lookup(self, monkeypatch):
        """``on_buffer`` resolves its counter once per action; later events
        of that action only increment it."""
        telemetry = Telemetry()
        telemetry.on_buffer("miss", 1)
        lookups = []
        registry = type(telemetry.metrics)
        original = registry._get_or_create
        monkeypatch.setattr(
            registry, "_get_or_create",
            lambda self, *args, **kwargs: lookups.append(args) or original(self, *args, **kwargs),
        )
        telemetry.on_buffer("miss", 2)
        assert lookups == []
        assert telemetry.metrics.get("buffer_miss_total").value == 2
