"""Cross-layer observability: event tracing, metrics, exporters.

The :class:`Telemetry` object bundles a synchronous
:class:`~repro.telemetry.events.EventBus` with a
:class:`~repro.telemetry.metrics.MetricsRegistry` and exposes the
``on_*`` hook methods the instrumented layers call:

* flash array — raw NAND command stream and per-op latency histograms;
* NoFTL — host I/O latencies, GC trigger / victim / migration / erase
  decisions;
* IPA manager — flush outcomes (IPA vs. out-of-place vs. skipped,
  budget overflows, device fallbacks), delta sizes, appends-per-page;
* buffer pool — misses, evictions, cleaner and checkpoint flushes.

Telemetry is **disabled by default**: every instrumentation site holds
a ``telemetry`` handle that is ``None`` unless a Telemetry instance was
attached, and checks it before doing *any* work — the null sink costs
one attribute load and allocates nothing.  Even with telemetry
attached, events are only constructed while the bus has subscribers
(:attr:`EventBus.active`); histograms and counters are always fed.

One Telemetry instance observes one device/engine pair: binding
exports the stats objects' fields as read-through counters, and the
last device bound under a name wins.

Typical use::

    from repro import SessionConfig, open_session
    from repro.telemetry import Telemetry
    from repro.telemetry.export import JsonlTraceWriter, prometheus_text

    tele = Telemetry()
    session = open_session(SessionConfig(scheme=scheme, telemetry=tele))
    with JsonlTraceWriter("run.jsonl").attach(tele.events):
        driver.run(10_000)
    print(prometheus_text(tele.metrics))
"""

from __future__ import annotations

from .events import (
    EVENT_BY_NAME,
    EVENT_TYPES,
    BufferEvent,
    EventBus,
    FlashOpEvent,
    FlushEvent,
    GCEraseEvent,
    GCMigrationEvent,
    GCTriggerEvent,
    GCVictimEvent,
    HostIOEvent,
    TelemetryEvent,
)
from .export import (
    JsonlTraceWriter,
    aggregate_trace,
    csv_summary,
    prometheus_text,
    read_jsonl_trace,
)
from .metrics import (
    APPEND_BUCKETS,
    LATENCY_BUCKETS_US,
    SIZE_BUCKETS_BYTES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Telemetry",
    "EventBus",
    "TelemetryEvent",
    "FlashOpEvent",
    "HostIOEvent",
    "GCTriggerEvent",
    "GCVictimEvent",
    "GCMigrationEvent",
    "GCEraseEvent",
    "FlushEvent",
    "BufferEvent",
    "EVENT_TYPES",
    "EVENT_BY_NAME",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_US",
    "SIZE_BUCKETS_BYTES",
    "APPEND_BUCKETS",
    "JsonlTraceWriter",
    "read_jsonl_trace",
    "aggregate_trace",
    "prometheus_text",
    "csv_summary",
]


class Telemetry:
    """One run's observability surface: event bus + metrics registry.

    Construct, pass as ``SessionConfig(telemetry=)`` (or to
    ``StorageEngine(telemetry=)``, or call :meth:`attach_device` on a
    bare device), and read :attr:`metrics` or subscribe to
    :attr:`events` afterwards.
    The ``on_*`` methods are the instrumentation entry points; they
    update histograms unconditionally and allocate events only while
    the bus has subscribers.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.events = EventBus()
        self.metrics = registry if registry is not None else MetricsRegistry()
        m = self.metrics
        #: Host-observed latency distributions (paper figures 7-10 style).
        self.host_read_latency = m.histogram(
            "host_read_latency_us", LATENCY_BUCKETS_US,
            help="Observed host read latency in microseconds",
        )
        self.host_write_latency = m.histogram(
            "host_write_latency_us", LATENCY_BUCKETS_US,
            help="Observed host write latency (page writes and IPAs) in microseconds",
        )
        self.gc_round_time = m.histogram(
            "gc_round_time_us", LATENCY_BUCKETS_US,
            help="Time consumed by one GC round (migrations + erase) in microseconds",
        )
        self.delta_size = m.histogram(
            "flush_delta_bytes", SIZE_BUCKETS_BYTES,
            help="Encoded delta payload bytes per IPA flush",
        )
        self.update_size = m.histogram(
            "flush_update_bytes", SIZE_BUCKETS_BYTES,
            help="Gross changed bytes per update flush (ipa and oop)",
        )
        self.appends_per_page = m.histogram(
            "flush_appends_per_page", APPEND_BUCKETS,
            help="Delta-slot occupancy of a page after an IPA flush",
        )
        self._flash_latency: dict[str, Histogram] = {}
        self._buffer_counters: dict[str, Counter] = {}
        self._device = None
        self._pool = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_device(self, device) -> None:
        """Instrument a :class:`~repro.ftl.device.FlashDevice` backend.

        The device does its own wiring (``bind_telemetry``): NoFTL binds
        its stats and flash array, BlockSSD additionally exports its
        delta-command counters, and a sharded device fans out to every
        shard under per-shard labels.
        """
        device.bind_telemetry(self)
        self._device = device

    def attach_engine(self, engine) -> None:
        """Instrument a storage engine and everything below it."""
        self.attach_device(engine.device)
        engine.telemetry = self
        engine.ipa.telemetry = self
        self.export_stats(engine.ipa.stats)
        engine.pool.telemetry = self
        self._pool = engine.pool

    def export_stats(self, stats, prefix: str = "") -> None:
        """Export a stats dataclass's fields as registry counters."""
        self.metrics.read_fields(stats, prefix)

    def collect(self) -> None:
        """Refresh sampled gauges from the attached components.

        Exporters call this before a dump so point-in-time state
        (per-chip busy time, wear spread, buffer dirty fraction) is
        current without any hot-path cost.
        """
        if self._device is not None:
            self._device.collect_gauges(self.metrics)
        if self._pool is not None:
            self.metrics.gauge(
                "buffer_dirty_fraction", help="Dirty fraction of the buffer pool"
            ).set(self._pool.dirty_fraction)

    # ------------------------------------------------------------------
    # Flash layer hooks
    # ------------------------------------------------------------------

    def on_raw_latency(self, op: str, cell_type, kind, latency_us: float) -> None:
        """LatencyModel observer: histogram raw op costs per op type."""
        hist = self._flash_latency.get(op)
        if hist is None:
            hist = self.metrics.histogram(
                f"flash_{op}_latency_us", LATENCY_BUCKETS_US,
                help=f"Raw flash {op} latency in microseconds",
            )
            self._flash_latency[op] = hist
        hist.observe(latency_us)

    def on_flash_op(
        self, op: str, address, cell_type, kind, num_bytes: int, latency_us: float
    ) -> None:
        """FlashMemory hook: one NAND command executed."""
        if self.events.active:
            self.events.emit(FlashOpEvent(
                op=op,
                chip=address.chip,
                block=address.block,
                page=address.page,
                cell_type=cell_type.name,
                kind=kind.value if kind is not None else None,
                num_bytes=num_bytes,
                latency_us=latency_us,
            ))

    # ------------------------------------------------------------------
    # NoFTL hooks
    # ------------------------------------------------------------------

    def on_host_read(self, lpn: int, num_bytes: int, latency_us: float) -> None:
        """NoFTL hook: one host read completed."""
        self.host_read_latency.observe(latency_us)
        if self.events.active:
            self.events.emit(HostIOEvent(
                op="read", lpn=lpn, num_bytes=num_bytes, latency_us=latency_us,
            ))

    def on_host_write(self, lpn: int, num_bytes: int, latency_us: float) -> None:
        """NoFTL hook: one out-of-place host page write completed."""
        self.host_write_latency.observe(latency_us)
        if self.events.active:
            self.events.emit(HostIOEvent(
                op="write", lpn=lpn, num_bytes=num_bytes, latency_us=latency_us,
            ))

    def on_write_delta(self, lpn: int, num_bytes: int, latency_us: float) -> None:
        """NoFTL hook: one in-place append completed."""
        self.host_write_latency.observe(latency_us)
        if self.events.active:
            self.events.emit(HostIOEvent(
                op="write_delta", lpn=lpn, num_bytes=num_bytes, latency_us=latency_us,
            ))

    def on_gc_trigger(self, region: str, erased_available: int) -> None:
        """NoFTL hook: a region fell below its GC reserve."""
        self.metrics.counter(
            "gc_triggers_total", help="GC activations (reserve crossed)"
        ).inc()
        if self.events.active:
            self.events.emit(GCTriggerEvent(
                region=region, erased_available=erased_available,
            ))

    def on_gc_victim(
        self, region: str, victim, valid_pages: int, candidates: int
    ) -> None:
        """NoFTL hook: the collector picked a victim block."""
        if self.events.active:
            self.events.emit(GCVictimEvent(
                region=region, chip=victim[0], block=victim[1],
                valid_pages=valid_pages, candidates=candidates,
            ))

    def on_gc_migration(self, region: str, lpn: int, src, dst) -> None:
        """NoFTL hook: one valid page migrated out of a victim."""
        if self.events.active:
            self.events.emit(GCMigrationEvent(
                region=region, lpn=lpn,
                src_chip=src.chip, src_block=src.block,
                dst_chip=dst.chip, dst_block=dst.block,
            ))

    def on_gc_erase(self, region: str, victim, gc_time_us: float) -> None:
        """NoFTL hook: a victim block was erased; the round is done."""
        self.gc_round_time.observe(gc_time_us)
        if self.events.active:
            self.events.emit(GCEraseEvent(
                region=region, chip=victim[0], block=victim[1],
                gc_time_us=gc_time_us,
            ))

    # ------------------------------------------------------------------
    # Engine / IPA-manager / buffer hooks
    # ------------------------------------------------------------------

    def on_flush(
        self,
        lpn: int,
        kind: str,
        net: int,
        gross: int,
        overflowed: bool,
        budget_overflow: bool,
        fallback: bool,
        records: int,
        appends: int,
        delta_bytes: int,
        latency_us: float,
    ) -> None:
        """IPA-manager hook: one flush outcome decided and executed."""
        if kind == "ipa":
            self.delta_size.observe(delta_bytes)
            self.appends_per_page.observe(appends)
            self.update_size.observe(gross)
        elif kind == "oop":
            self.update_size.observe(gross)
        if self.events.active:
            self.events.emit(FlushEvent(
                lpn=lpn, kind=kind, net=net, gross=gross,
                overflowed=overflowed, budget_overflow=budget_overflow,
                fallback=fallback, records=records, appends=appends,
                latency_us=latency_us,
            ))

    def on_buffer(self, action: str, lpn: int) -> None:
        """Buffer-pool hook: one miss / eviction / background flush."""
        counter = self._buffer_counters.get(action)
        if counter is None:
            counter = self.metrics.counter(
                f"buffer_{action}_total", help=f"Buffer pool {action} events"
            )
            self._buffer_counters[action] = counter
        counter.inc()
        if self.events.active:
            self.events.emit(BufferEvent(action=action, lpn=lpn))
