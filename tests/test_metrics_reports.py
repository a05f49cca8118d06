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
from repro.session import BACKENDS
from repro.telemetry.export import csv_summary, prometheus_text

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
