"""Per-DB-object profiling feeding the placement advisor (paper §8.4)."""

import pytest

from repro.analysis import PerObjectCollector
from repro.core import IPAAdvisor, SCHEME_OFF
from repro.session import SessionConfig, open_session
from repro.testbed import load_scaled
from repro.workloads import TPCB, TPCBConfig


@pytest.fixture(scope="module")
def profiled():
    engine = open_session(SessionConfig(
        logical_pages=400, chips=4, scheme=SCHEME_OFF, buffer_pages=400,
        engine=dict(log_capacity_bytes=500_000),
    )).engine
    collector = PerObjectCollector(engine)
    engine.add_flush_observer(collector)
    workload = TPCB(TPCBConfig(accounts_per_branch=4000))
    driver = load_scaled(engine, workload, buffer_fraction=0.15)
    collector.net_by_object.clear()
    collector.gross_by_object.clear()
    driver.run(2000)
    engine.flush_all()
    return engine, collector


class TestPerObjectCollector:
    def test_attributes_flushes_to_tables(self, profiled):
        __, collector = profiled
        assert "account" in collector.net_by_object
        assert collector.unattributed == 0

    def test_account_dominates_update_ios(self, profiled):
        """The paper's Appendix A: the Account table takes the lion's
        share of TPC-B's update I/Os."""
        __, collector = profiled
        assert collector.objects()[0] == "account"

    def test_account_updates_are_small(self, profiled):
        __, collector = profiled
        sizes = collector.net_by_object["account"]
        small = sum(1 for s in sizes if s <= 8)
        assert small / len(sizes) > 0.5

    def test_gross_at_least_net(self, profiled):
        __, collector = profiled
        for name in collector.objects():
            for net, gross in zip(collector.net_by_object[name],
                                  collector.gross_by_object[name]):
                assert gross >= net


class TestEndToEndPlacement:
    def test_advisor_places_the_hot_tables(self, profiled):
        """Profile -> placement: the paper's '3 of 4 TPC-B tables'."""
        __, collector = profiled
        advisor = IPAAdvisor([1])  # goals/cell config holder
        placement = advisor.recommend_placement(
            collector.profile(), min_ipa_fraction=0.25
        )
        assert placement.get("account") is not None
        # The balance tables need tiny M; the insert-only History table
        # either stays out of the IPA region or needs a several-times
        # larger M (its "updates" are whole appended rows).
        history = placement.get("history")
        account_m = placement["account"].scheme.m
        assert history is None or history.scheme.m > 3 * account_m
