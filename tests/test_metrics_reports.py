"""The ``repro metrics`` dumps, pinned byte for byte.

CI reruns each metrics dump and ``cmp``s it against itself, which a
reordered or retyped line passes.  These digests pin both renderings of
``repro metrics --workload tpcb --txns 300`` on every backend: the
Prometheus text (``--format prom``) and the CSV summary (``--format
csv``), both rendered from one in-process run of the command.  A digest
that moves is a changed export — a metric renamed, reordered, dropped,
added, or printed as another type.
"""

import hashlib

import pytest

from repro import cli
from repro.cli import main
from repro.session import BACKENDS, SessionConfig, open_session
from repro.telemetry import Telemetry
from repro.telemetry.export import csv_summary, prometheus_text
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig

#: backend -> (sha256 of the prom dump, sha256 of the csv dump).
DIGESTS = {
    "noftl": (
        "1029803415641752fa28b7d6c377f65f1fec66d2935a3c695bc8a86dfacbd726",
        "ace819ce11bea375ce298cf9aa5ac2eaf8d8635f1942440f627fb6911bc948b9",
    ),
    "blockssd": (
        "db99be2a68f7bd2f40f8978618f8905d6c9c3f10ebff16400a3273c1d5e148fd",
        "b14a94eff2cbc70aa17e25403a330019283eab745f39071db888855b05c5d8a2",
    ),
    "sharded": (
        "91d756ec92bdd2679e2f59db55298b85d1414e2d957cf45f759294f4dd4e8c16",
        "915b4996c00c14f394028d176e764bcc621502e51530152964954cfae74e6c57",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_backend_is_pinned():
    assert sorted(DIGESTS) == sorted(BACKENDS)
    assert sorted(REGISTERED_NAMES) == sorted(BACKENDS)


@pytest.mark.parametrize("backend", sorted(DIGESTS))
def test_metrics_dumps_are_pinned(backend, monkeypatch, capsys):
    rendered = {}

    def prom_and_csv(registry):
        rendered["csv"] = csv_summary(registry)
        return prometheus_text(registry)

    monkeypatch.setattr(cli, "prometheus_text", prom_and_csv)
    assert main(["metrics", "--workload", "tpcb", "--txns", "300",
                 "--backend", backend]) == 0
    prom = capsys.readouterr().out
    assert (_sha(prom), _sha(rendered["csv"])) == DIGESTS[backend]


#: Metric names registered by the engine, the IPA manager and the
#: buffer pool, on every backend.
ENGINE_NAMES = [
    "buffer_checkpoint_flush_total", "buffer_cleaner_flush_total",
    "buffer_dirty_fraction", "buffer_evict_total", "buffer_miss_total",
    "flash_erase_latency_us", "flash_program_latency_us", "flash_read_latency_us",
    "flush_appends_per_page", "flush_delta_bytes", "flush_update_bytes",
    "gc_round_time_us", "gc_triggers_total",
    "host_read_latency_us", "host_write_latency_us",
    "ipa_budget_overflows", "ipa_delta_bytes_written", "ipa_delta_records_written",
    "ipa_device_fallbacks", "ipa_ecc_corrected_bits", "ipa_ipa_flushes",
    "ipa_oop_flushes", "ipa_skipped_flushes",
]
#: Names one NoFTL controller registers (once per shard, prefixed).
DEVICE_NAMES = [
    *(f"chip_{index}_busy_time_us" for index in range(4)),
    "device_bytes_delta_written", "device_bytes_host_read",
    "device_bytes_page_written", "device_delta_writes", "device_gc_erases",
    "device_gc_page_migrations", "device_gc_time_us_total",
    "device_host_page_writes", "device_host_reads",
    "device_read_latency_us_total", "device_write_latency_us_total",
    "wear_max_erase_count", "wear_min_erase_count",
]
BLOCKSSD_NAMES = [
    "blockssd_delta_commands", "blockssd_deltas_in_place", "blockssd_deltas_rmw",
    "blockssd_reads", "blockssd_writes",
]
REGISTERED_NAMES = {
    "noftl": ENGINE_NAMES + DEVICE_NAMES,
    "blockssd": ENGINE_NAMES + DEVICE_NAMES + BLOCKSSD_NAMES,
    "sharded": ENGINE_NAMES
    + [f"shard{shard}_{name}" for shard in range(4) for name in DEVICE_NAMES],
}


@pytest.mark.parametrize("backend", sorted(REGISTERED_NAMES))
def test_registered_metric_names_are_pinned(backend):
    """Every name a run registers, GC and buffer paths included: a
    renamed, dropped or added metric changes this list."""
    telemetry = Telemetry()
    engine = open_session(SessionConfig(
        backend=backend, logical_pages=400, chips=4, buffer_pages=400,
        telemetry=telemetry,
    )).engine
    driver = load_scaled(engine, TPCB(TPCBConfig(accounts_per_branch=2000)),
                         buffer_fraction=0.3, seed=3)
    driver.run(150)
    telemetry.collect()
    assert telemetry.metrics.get("gc_triggers_total").value > 0
    assert sorted(metric.name for metric in telemetry.metrics) == sorted(
        REGISTERED_NAMES[backend]
    )
