"""Selective IPA: per-region delta areas and placement recommendations.

The paper's contribution II: "IPA can be selectively applied to specific
database objects (e.g. frequently updated tables or indices) without
extra DBA overhead. The rest of the DB objects are not impacted."
"""

from repro.core import IPAAdvisor, NxMScheme
from repro.flash import CellType, FlashGeometry, FlashMemory
from repro.ftl import IPAMode, NoFTL, RegionConfig
from repro.storage import Char, Column, EngineConfig, Int32, Int64, Schema, StorageEngine
from repro.storage import recover
from repro.storage.page_layout import delta_area_size_of


def make_engine(scheme=NxMScheme(2, 4), retain_log=False, flush=True):
    geometry = FlashGeometry(
        chips=2, blocks_per_chip=48, pages_per_block=16, page_size=1024,
        oob_size=64, cell_type=CellType.MLC,
    )
    device = NoFTL.create(
        FlashMemory(geometry),
        [
            RegionConfig("rgIPA", logical_pages=64, ipa_mode=IPAMode.PSLC),
            RegionConfig("rgPlain", logical_pages=64, ipa_mode=IPAMode.NONE),
        ],
    )
    engine = StorageEngine(
        device, EngineConfig(buffer_pages=32, scheme=scheme, retain_log=retain_log)
    )
    schema = Schema([Column("k", Int32()), Column("v", Int64()),
                     Column("p", Char(40))])
    hot = engine.create_table("hot", schema, key=["k"], region="rgIPA")
    cold = engine.create_table("cold", schema, key=["k"], region="rgPlain")
    txn = engine.begin()
    for i in range(60):
        hot.insert(txn, (i, 0, "x"))
        cold.insert(txn, (i, 0, "x"))
    engine.commit(txn)
    if flush:
        engine.flush_all()
    return engine, hot, cold


class TestRecoveryKeepsPerRegionLayout:
    def test_never_flushed_plain_page_is_reformatted_without_a_delta_area(self):
        """Redo re-creates a page by the rule that allocated it: a page
        of a non-IPA region packs 17 rows only because it reserves no
        delta area, so re-formatting it with the scheme's area could not
        replay its inserts."""
        engine, hot, cold = make_engine(
            scheme=NxMScheme(3, 20), retain_log=True, flush=False
        )
        engine.crash()
        recover(engine)
        for lpn in cold.pages:
            frame = engine.pin(lpn)
            assert frame.page.delta_area_size == 0
            engine.unpin(lpn, False)
        assert sorted(values[0] for __, values in cold.scan()) == list(range(60))
        assert sorted(values[0] for __, values in hot.scan()) == list(range(60))


    def test_rebuilt_secondary_index_stays_in_its_region(self):
        """Recovery rebuilds a secondary index into the region it was
        created in, not into the device's first region."""
        engine, hot, cold = make_engine(retain_log=True)
        index = engine.create_index("hot_by_v", "hot", ["v"], region="rgPlain")
        engine.crash()
        recover(engine)
        assert len(index) == 60
        assert index._tree.pages
        assert {
            engine.device.region_of(lpn).name for lpn in index._tree.pages
        } == {"rgPlain"}


class TestPerRegionDeltaAreas:
    def test_cold_pages_reserve_no_delta_area(self):
        engine, hot, cold = make_engine()
        hot_frame = engine.pin(hot.lookup(0).lpn)
        cold_frame = engine.pin(cold.lookup(0).lpn)
        assert hot_frame.page.delta_area_size == NxMScheme(2, 4).area_size
        assert cold_frame.page.delta_area_size == 0
        engine.unpin(hot_frame.lpn, False)
        engine.unpin(cold_frame.lpn, False)

    def test_cold_pages_fit_more_records(self):
        """The space not reserved is actually usable: more rows/page."""
        engine, hot, cold = make_engine(scheme=NxMScheme(3, 20))
        assert len(cold.pages) < len(hot.pages)

    def test_updates_append_only_in_ipa_region(self):
        engine, hot, cold = make_engine()
        events = []
        engine.add_flush_observer(
            lambda lpn, kind, net, gross, ov: events.append(
                (engine.device.region_of(lpn).name, kind)
            )
        )
        for i in range(30):
            txn = engine.begin()
            hot.update(txn, hot.lookup(i), {"v": i})
            cold.update(txn, cold.lookup(i), {"v": i})
            engine.commit(txn)
            engine.flush_all()
        kinds = {}
        for region, kind in events:
            kinds.setdefault(region, set()).add(kind)
        assert "ipa" in kinds["rgIPA"]
        assert "ipa" not in kinds.get("rgPlain", set())

    def test_cold_pages_roundtrip_without_delta_decoding(self):
        engine, hot, cold = make_engine()
        txn = engine.begin()
        cold.update(txn, cold.lookup(5), {"v": 42})
        engine.commit(txn)
        engine.flush_all()
        engine.pool.drop_all()
        assert cold.read(cold.lookup(5))[1] == 42

    def test_raw_image_reports_area_size(self):
        engine, hot, cold = make_engine()
        hot_image = engine.device.read(hot.lookup(0).lpn).data
        cold_image = engine.device.read(cold.lookup(0).lpn).data
        assert delta_area_size_of(hot_image) == NxMScheme(2, 4).area_size
        assert delta_area_size_of(cold_image) == 0


class TestPlacementAdvisor:
    def test_stock_like_object_placed_history_not(self):
        advisor = IPAAdvisor([4] * 100, cell_type=CellType.SLC)
        placement = advisor.recommend_placement({
            "stock": [3] * 500,          # tiny updates: ideal for IPA
            "history": [],               # insert-only: no updates at all
            "blob_store": [900] * 200,   # huge updates: IPA pointless
        })
        assert placement["stock"] is not None
        assert placement["stock"].scheme.m <= 8
        assert placement["history"] is None
        assert placement["blob_store"] is None

    def test_threshold_respected(self):
        advisor = IPAAdvisor([4] * 10)
        # updates of 40 bytes against a 5% space budget: low predicted
        # share at strict thresholds
        samples = {"mid": [40] * 100}
        strict = advisor.recommend_placement(samples, min_ipa_fraction=0.99)
        assert strict["mid"] is None
        lax = advisor.recommend_placement(samples, min_ipa_fraction=0.0)
        assert lax["mid"] is not None

    def test_tpcb_style_three_of_four_tables(self):
        """The paper: IPA for 3 of 4 TPC-B tables (History is append-only)."""
        advisor = IPAAdvisor([4] * 10)
        placement = advisor.recommend_placement({
            "account": [4] * 1000,
            "teller": [4] * 300,
            "branch": [4, 5] * 150,
            "history": [],
        })
        placed = [name for name, rec in placement.items() if rec is not None]
        assert sorted(placed) == ["account", "branch", "teller"]
