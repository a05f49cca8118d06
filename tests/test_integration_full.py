"""Full-stack integration: workloads + IPA + ECC + checksums + recovery.

These are the slowest unit-suite tests; they tie every subsystem
together the way the benchmark harness does, and verify *semantic*
invariants (conservation laws, index consistency) rather than counters.
"""

from repro.analysis import lifetime_host_writes
from repro.core import NxMScheme, SCHEME_OFF
from repro.flash.constants import ENDURANCE_CYCLES, CellType
from repro.storage import EngineConfig, StorageEngine, recover
from repro.session import SessionConfig, open_device, open_session
from repro.testbed import load_scaled
from repro.workloads import Driver, TPCB, TPCBConfig, TPCC, TPCCConfig


class TestTPCBConservation:
    def test_balances_conserve_through_ipa_and_gc(self):
        engine = open_session(SessionConfig(
            logical_pages=400, chips=4, scheme=NxMScheme(2, 4), buffer_pages=400,
            engine=dict(log_capacity_bytes=500_000),
        )).engine
        workload = TPCB(TPCBConfig(accounts_per_branch=4000))
        driver = load_scaled(engine, workload, buffer_fraction=0.15)
        driver.run(2500)
        assert engine.device.stats.delta_writes > 0
        assert engine.device.stats.gc_erases > 0
        engine.flush_all()
        engine.pool.drop_all()  # force everything back through flash
        accounts = sum(v[2] for __, v in workload.account.scan())
        branches = sum(v[1] for __, v in workload.branch.scan())
        tellers = sum(v[2] for __, v in workload.teller.scan())
        assert accounts - 4000 * 10_000 == branches == tellers

    def test_crash_mid_workload_conserves(self):
        device = open_device(SessionConfig(logical_pages=400, chips=4))
        engine = StorageEngine(device, EngineConfig(
            buffer_pages=80, scheme=NxMScheme(2, 4), retain_log=True,
            log_capacity_bytes=64 * 1024 * 1024,  # avoid mid-run truncation
        ))
        workload = TPCB(TPCBConfig(accounts_per_branch=1500))
        driver = Driver(engine, workload, seed=3)
        driver.load()
        driver.run(600)
        engine.crash()
        recover(engine)
        accounts = sum(v[2] for __, v in workload.account.scan())
        branches = sum(v[1] for __, v in workload.branch.scan())
        tellers = sum(v[2] for __, v in workload.teller.scan())
        assert accounts - 1500 * 10_000 == branches == tellers


class TestTPCCConsistency:
    def test_orders_match_order_lines(self):
        engine = open_session(SessionConfig(
            logical_pages=900, chips=4, scheme=NxMScheme(2, 3), buffer_pages=900,
        )).engine
        workload = TPCC(TPCCConfig(customers_per_district=80, items=600))
        driver = load_scaled(engine, workload, buffer_fraction=0.3)
        driver.run(800)
        engine.flush_all()
        engine.pool.drop_all()
        for __, order in workload.orders.scan():
            o_id, d, w, __, __, ol_cnt, __ = order
            for number in range(1, ol_cnt + 1):
                line_rid = workload.order_line.lookup(w, d, o_id, number)
                line = workload.order_line.read(line_rid)
                assert line[0] == o_id and line[3] == number

    def test_district_next_o_id_matches_orders(self):
        engine = open_session(SessionConfig(
            logical_pages=900, chips=4, scheme=NxMScheme(2, 3), buffer_pages=900,
        )).engine
        workload = TPCC(TPCCConfig(customers_per_district=80, items=600))
        driver = load_scaled(engine, workload, buffer_fraction=0.3)
        driver.run(600)
        order_count = sum(1 for __ in workload.orders.scan())
        issued = sum(
            values[3] - 1 for __, values in workload.district.scan()
        )
        # Aborted NewOrders roll d_next_o_id back, so issued == orders.
        assert issued == order_count


class TestECCAndChecksumsUnderWorkload:
    def test_full_protection_run(self):
        engine = open_session(SessionConfig(
            logical_pages=400, chips=4, scheme=NxMScheme(2, 4), buffer_pages=400,
            engine=dict(ecc=True, page_checksum=True),
        )).engine
        workload = TPCB(TPCBConfig(accounts_per_branch=2000))
        driver = load_scaled(engine, workload, buffer_fraction=0.2)
        driver.run(800)
        engine.flush_all()
        engine.pool.drop_all()
        total = sum(v[2] for __, v in workload.account.scan())
        assert total != 0  # data readable through ECC + checksum path
        assert engine.ipa.stats.ipa_flushes > 0


class TestOpenSSDPlatformIntegration:
    def test_mlc_board_end_to_end(self):
        from repro.ftl.region import IPAMode

        engine = open_session(SessionConfig(
            logical_pages=400, platform="openssd", mode=IPAMode.ODD_MLC, chips=4,
            scheme=NxMScheme(2, 4), buffer_pages=400,
            engine=dict(log_capacity_bytes=500_000),
        )).engine
        workload = TPCB(TPCBConfig(accounts_per_branch=4000))
        driver = load_scaled(engine, workload, buffer_fraction=0.1)
        result = driver.run(1500)
        assert result.device["delta_writes"] > 0
        assert engine.ipa.stats.device_fallbacks > 0  # MSB residents
        total = sum(v[2] for __, v in workload.account.scan())
        assert total == 4000 * 10_000 + sum(
            v[1] for __, v in workload.branch.scan()
        )


class TestLongevityAccounting:
    def test_ipa_extends_device_lifetime(self):
        """The Section 8.4 longevity claim, end to end."""
        def erase_rate(scheme):
            session = open_session(SessionConfig(
                logical_pages=300, chips=4, scheme=scheme, buffer_pages=300,
                engine=dict(log_capacity_bytes=400_000),
            ))
            device, engine = session.device, session.engine
            workload = TPCB(TPCBConfig(accounts_per_branch=3000))
            driver = load_scaled(engine, workload, buffer_fraction=0.1)
            driver.run(2500)
            blocks = device.flash.geometry.total_blocks
            return lifetime_host_writes(
                device.stats, blocks, ENDURANCE_CYCLES[CellType.SLC]
            )

        baseline = erase_rate(SCHEME_OFF)
        with_ipa = erase_rate(NxMScheme(2, 4))
        assert with_ipa > 1.5 * baseline  # paper: roughly doubled
