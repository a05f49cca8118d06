"""Tests for the workload generators, driver, and trace recorder."""

import random

import pytest

from repro.core import NxMScheme
from repro.errors import WorkloadError
from repro.session import SessionConfig, open_session
from repro.testbed import load_scaled
from repro.workloads import (
    Driver,
    LinkBench,
    LinkBenchConfig,
    TATP,
    TATPConfig,
    TPCB,
    TPCBConfig,
    TPCC,
    TPCCConfig,
    TraceRecorder,
    Zipf,
    nurand,
)


def small_engine(pages=300, scheme=NxMScheme(2, 4)):
    return open_session(SessionConfig(
        logical_pages=pages, chips=4, scheme=scheme, buffer_pages=pages,
    )).engine


class TestRand:
    def test_zipf_skew(self):
        rng = random.Random(1)
        zipf = Zipf(100, theta=0.99)
        samples = [zipf.sample(rng) for __ in range(5000)]
        hot = sum(1 for s in samples if s < 10)
        assert hot > len(samples) * 0.4  # top 10% gets >40% of accesses

    def test_zipf_theta_zero_is_uniform(self):
        rng = random.Random(2)
        zipf = Zipf(10, theta=0.0)
        samples = [zipf.sample(rng) for __ in range(5000)]
        counts = [samples.count(v) for v in range(10)]
        assert max(counts) < 2 * min(counts)

    def test_zipf_range(self):
        rng = random.Random(3)
        zipf = Zipf(5, theta=1.2)
        assert all(0 <= zipf.sample(rng) < 5 for __ in range(200))

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            Zipf(0)
        with pytest.raises(ValueError):
            Zipf(5, theta=-1)

    def test_nurand_in_range(self):
        rng = random.Random(4)
        for __ in range(500):
            value = nurand(rng, 1023, 1, 3000)
            assert 1 <= value <= 3000


class TestTPCB:
    def test_balances_conserve(self):
        """Sum of account/teller/branch balances stays consistent."""
        engine = small_engine()
        workload = TPCB(TPCBConfig(accounts_per_branch=500))
        driver = Driver(engine, workload, seed=11)
        driver.load()
        driver.run(200)
        accounts = sum(v[2] for __, v in workload.account.scan())
        branches = sum(v[1] for __, v in workload.branch.scan())
        tellers = sum(v[2] for __, v in workload.teller.scan())
        initial = 500 * 10_000
        assert accounts - initial == branches == tellers

    def test_history_grows(self):
        engine = small_engine()
        workload = TPCB(TPCBConfig(accounts_per_branch=200))
        driver = Driver(engine, workload, seed=1)
        driver.load()
        driver.run(50)
        assert workload.history.row_count == 50

    def test_update_sizes_are_small(self):
        """The Appendix A claim: account updates change ~4 net bytes."""
        engine = small_engine()
        workload = TPCB(TPCBConfig(accounts_per_branch=2000))
        recorder = TraceRecorder().attach(engine)
        driver = load_scaled(engine, workload, buffer_fraction=0.3, seed=5)
        recorder.events.clear()
        driver.run(400)
        engine.flush_all()
        sizes = [s for s in recorder.write_sizes() if s > 0]
        assert sizes
        small = sum(1 for s in sizes if s <= 8)
        assert small / len(sizes) > 0.4


class TestTPCC:
    @pytest.fixture(scope="class")
    def tpcc_run(self):
        engine = small_engine(pages=700)
        workload = TPCC(TPCCConfig(customers_per_district=60, items=400))
        driver = Driver(engine, workload, seed=3)
        driver.load()
        result = driver.run(400)
        return engine, workload, result

    def test_mix_proportions(self, tpcc_run):
        __, __, result = tpcc_run
        mix = result.mix
        total = sum(mix.values())
        new_orders = mix.get("new_order", 0) + mix.get("new_order_rollback", 0)
        assert 0.35 < new_orders / total < 0.55
        assert 0.33 < mix.get("payment", 0) / total < 0.53

    def test_next_o_id_advances(self, tpcc_run):
        __, workload, __ = tpcc_run
        districts = list(workload.district.scan())
        assert sum(v[3] - 1 for __, v in districts) > 0

    def test_stock_updates_dominate(self, tpcc_run):
        """NewOrder writes ~10 stock rows: stock pages dominate updates."""
        __, workload, result = tpcc_run
        assert workload.stock.row_count == 400

    def test_delivery_consumes_new_orders(self):
        engine = small_engine(pages=700)
        workload = TPCC(TPCCConfig(customers_per_district=60, items=400))
        driver = Driver(engine, workload, seed=9)
        driver.load()
        driver.run(500)
        delivered = sum(
            1 for __, v in workload.orders.scan() if v[4] != 0
        )
        if any(k == "delivery" for k in driver.run(1).mix):
            pass  # at least exercised
        assert workload.new_order.row_count <= sum(
            1 for __ in workload.orders.scan()
        )
        assert delivered >= 0

    def test_rollback_fraction(self):
        engine = small_engine(pages=700)
        workload = TPCC(TPCCConfig(customers_per_district=60, items=400,
                                   rollback_fraction=1.0))
        driver = Driver(engine, workload, seed=3)
        driver.load()
        result = driver.run(50)
        assert result.mix.get("new_order", 0) == 0
        assert engine.txns.aborted >= result.mix.get("new_order_rollback", 0)


class TestTATP:
    def test_mix_is_read_heavy(self):
        engine = small_engine(pages=600)
        workload = TATP(TATPConfig(subscribers=2000))
        driver = Driver(engine, workload, seed=2)
        driver.load()
        result = driver.run(600)
        reads = sum(
            count for name, count in result.mix.items() if name.startswith("get")
        )
        assert reads / sum(result.mix.values()) > 0.7

    def test_update_location_changes_four_bytes(self):
        engine = small_engine(pages=600)
        workload = TATP(TATPConfig(subscribers=2000))
        recorder = TraceRecorder().attach(engine)
        driver = load_scaled(engine, workload, buffer_fraction=0.3, seed=2)
        recorder.events.clear()
        driver.run(600)
        engine.flush_all()
        sizes = [s for s in recorder.write_sizes() if s > 0]
        assert sizes
        assert sum(1 for s in sizes if s <= 8) / len(sizes) > 0.3

    def test_call_forwarding_lifecycle(self):
        # A tiny subscriber population so insert/delete keys collide.
        engine = small_engine(pages=600)
        workload = TATP(TATPConfig(subscribers=10))
        driver = Driver(engine, workload, seed=6)
        driver.load()
        result = driver.run(3000)
        assert result.mix.get("insert_call_forwarding", 0) > 0
        assert result.mix.get("delete_call_forwarding", 0) > 0


class TestLinkBench:
    def test_runs_all_operations(self):
        engine = small_engine(pages=800)
        workload = LinkBench(LinkBenchConfig(nodes=800))
        driver = Driver(engine, workload, seed=4)
        driver.load()
        result = driver.run(1500)
        assert result.mix.get("get_link_list", 0) > 0
        assert result.mix.get("update_node", 0) > 0
        assert result.mix.get("add_link", 0) > 0

    def test_zipf_concentrates_updates(self):
        engine = small_engine(pages=800)
        workload = LinkBench(LinkBenchConfig(nodes=800, zipf_theta=1.2))
        driver = Driver(engine, workload, seed=4)
        driver.load()
        driver.run(300)
        assert workload.node.row_count > 0

    def test_gross_update_sizes_match_paper_band(self):
        """Most LinkBench updates change <= ~200 gross bytes."""
        engine = small_engine(pages=800)
        workload = LinkBench(LinkBenchConfig(nodes=800))
        recorder = TraceRecorder().attach(engine)
        driver = Driver(engine, workload, seed=4)
        driver.load()
        driver.run(1000)
        engine.flush_all()
        sizes = [s for s in recorder.write_sizes(gross=True) if s > 0]
        assert sizes
        small = sum(1 for s in sizes if s <= 250)
        assert small / len(sizes) > 0.3


class TestDriverProtocol:
    def test_run_before_load_raises(self):
        engine = small_engine()
        driver = Driver(engine, TPCB(TPCBConfig(accounts_per_branch=100)))
        with pytest.raises(WorkloadError):
            driver.run(10)

    def test_zero_transactions_rejected(self):
        engine = small_engine()
        driver = Driver(engine, TPCB(TPCBConfig(accounts_per_branch=100)))
        driver.load()
        with pytest.raises(WorkloadError):
            driver.run(0)

    def test_load_scaled_resizes_buffer(self):
        engine = small_engine(pages=300)
        workload = TPCB(TPCBConfig(accounts_per_branch=2000))
        load_scaled(engine, workload, buffer_fraction=0.25)
        pages = engine.loaded_pages()
        assert engine.pool.capacity == max(8, int(pages * 0.25))

    def test_measurement_excludes_load(self):
        engine = small_engine()
        workload = TPCB(TPCBConfig(accounts_per_branch=500))
        driver = Driver(engine, workload, seed=1)
        driver.load()
        assert engine.device.stats.host_writes == 0

    def test_deterministic_runs(self):
        def one():
            engine = small_engine()
            driver = Driver(engine, TPCB(TPCBConfig(accounts_per_branch=500)), seed=42)
            driver.load()
            result = driver.run(100)
            return result.engine_summary["device"]["host_writes"], result.mix

        assert one() == one()

    def test_trace_recorder_events(self):
        engine = small_engine(pages=300)
        workload = TPCB(TPCBConfig(accounts_per_branch=2000))
        recorder = TraceRecorder().attach(engine)
        driver = load_scaled(engine, workload, buffer_fraction=0.1)
        recorder.events.clear()
        driver.run(200)
        assert recorder.fetches > 0
        assert recorder.writes > 0
        kinds = {event.kind for event in recorder if event.op == "write"}
        assert kinds <= {"ipa", "oop", "new"}


class TestTPCCLastName:
    def test_lastname_generation_matches_spec(self):
        from repro.workloads.tpcc import last_name

        assert last_name(0) == "BARBARBAR"
        assert last_name(371) == "PRICALLYOUGHT"
        assert last_name(999) == "EINGEINGEING"
        assert last_name(1371) == last_name(371)

    def test_payment_by_lastname_through_index(self):
        engine = small_engine(pages=900)
        workload = TPCC(TPCCConfig(customers_per_district=60, items=400,
                                   use_lastname_index=True))
        driver = Driver(engine, workload, seed=5)
        driver.load()
        assert workload.lastname_index is not None
        assert len(workload.lastname_index) == 600
        result = driver.run(300)
        assert result.mix.get("payment", 0) > 0
        # the mix ran with index lookups without corrupting balances
        total_ytd = sum(v[2] for __, v in workload.district.scan())
        total_w_ytd = sum(v[1] for __, v in workload.warehouse.scan())
        assert total_ytd == total_w_ytd

    def test_index_disabled_by_default(self):
        engine = small_engine(pages=700)
        workload = TPCC(TPCCConfig(customers_per_district=30, items=200))
        driver = Driver(engine, workload, seed=5)
        driver.load()
        assert workload.lastname_index is None


class TestDriverWarmup:
    def test_warmup_excluded_from_measurement(self):
        engine = small_engine()
        driver = Driver(engine, TPCB(TPCBConfig(accounts_per_branch=500)), seed=2)
        driver.load()
        result = driver.run(50, warmup=100)
        # only the measured transactions appear in the mix
        assert sum(result.mix.values()) == 50
        # but all of them committed
        assert engine.txns.committed >= 150
