"""Figure 1 — the write-amplification cascade of one small update.

The paper's motivating walk-through: a ~10-byte logical update becomes

  (a) a few changed tuple bytes,
  (b) a whole modified tuple on the NSM page,
  (c) 20+ changed bytes plus ~80 bytes of header/footer churn,
  (d) a full 4-8 KiB page write over the block interface,
  (f) 1-5 physical flash writes after GC/WL --> WA of 400-800x.

We measure each stage on the real stack: a single TPC-B-style balance
update, flushed with and without IPA.
"""

import pytest

from _shared import publish
from repro.analysis import format_table
from repro.core import NxMScheme
from repro.session import SessionConfig, open_session
from repro.storage import Char, Column, Int32, Int64, Schema


def _one_update(scheme):
    session = open_session(SessionConfig(
        logical_pages=64, chips=2, scheme=scheme, buffer_pages=32,
    ))
    device, engine = session.device, session.engine
    schema = Schema([
        Column("id", Int32()), Column("balance", Int64()), Column("pad", Char(80)),
    ])
    table = engine.create_table("account", schema, key=["id"])
    txn = engine.begin()
    for i in range(30):
        table.insert(txn, (i, 10_000, "x"))
    engine.commit(txn)
    engine.flush_all()
    device.reset_stats()

    txn = engine.begin()
    rid = table.lookup(7)
    table.update(txn, rid, {"balance": 10_001})
    engine.commit(txn)
    frame = engine.pool.frame(rid.lpn)
    body, meta = frame.page.classify_tracked()
    engine.flush_all()
    stats = device.stats
    gross = stats.host_page_writes * device.page_size + stats.bytes_delta_written
    return dict(
        net_tuple_bytes=len(body),
        metadata_bytes=len(meta),
        bytes_shipped=gross,
        page_size=device.page_size,
        write_amplification=gross / max(1, len(body)),
    )


@pytest.mark.figure
def test_figure01_amplification_cascade(benchmark):
    def experiment():
        return {
            "0x0": _one_update(NxMScheme(0, 0, 0)),
            "2x4": _one_update(NxMScheme(2, 4)),
        }

    outcome = benchmark.pedantic(experiment, rounds=1, iterations=1)
    base, ipa = outcome["0x0"], outcome["2x4"]

    rows = [
        ["net tuple bytes changed (a)", base["net_tuple_bytes"], ipa["net_tuple_bytes"]],
        ["page metadata bytes (c)", base["metadata_bytes"], ipa["metadata_bytes"]],
        ["bytes shipped to flash (d)", base["bytes_shipped"], ipa["bytes_shipped"]],
        ["write amplification (x)", base["write_amplification"],
         ipa["write_amplification"]],
    ]
    publish(
        "figure01_amplification_cascade",
        format_table(
            ["stage", "traditional [0x0]", "IPA [2x4]"],
            rows,
            title=(
                "Figure 1: one small update through the stack\n"
                "paper: a ~10B update -> 4-8KB page write -> WA of 400-800x"
            ),
        ),
    )

    # A balance increment changes ~1 tuple byte plus a few LSN bytes.
    assert base["net_tuple_bytes"] <= 8
    # Traditional path ships the whole page: WA in the hundreds.
    assert base["bytes_shipped"] == base["page_size"]
    assert base["write_amplification"] > 400
    # IPA ships only delta records: two orders of magnitude less.
    assert ipa["bytes_shipped"] < base["bytes_shipped"] / 20
    assert ipa["write_amplification"] < base["write_amplification"] / 20
