"""Tests for the IPA advisor (paper Section 8.4)."""

import random

import pytest

from repro.analysis import UpdateSizeCollector
from repro.core import IPAAdvisor, NxMScheme
from repro.errors import IPAError
from repro.flash import CellType


def tpcb_like_samples(n=2000, seed=1):
    """Net sizes clustering at ~4 bytes plus a thin tail."""
    rng = random.Random(seed)
    sizes = []
    for __ in range(n):
        roll = rng.random()
        if roll < 0.75:
            sizes.append(rng.randint(1, 4))
        elif roll < 0.95:
            sizes.append(rng.randint(5, 8))
        else:
            sizes.append(rng.randint(20, 200))
    return sizes


class TestRecommendations:
    def test_goals_order_m(self):
        advisor = IPAAdvisor(tpcb_like_samples(), cell_type=CellType.SLC)
        recs = advisor.recommend_all()
        assert recs["space"].scheme.m <= recs["balanced"].scheme.m
        assert recs["balanced"].scheme.m <= recs["longevity"].scheme.m

    def test_tpcb_profile_suggests_small_m(self):
        advisor = IPAAdvisor(tpcb_like_samples(), cell_type=CellType.SLC)
        rec = advisor.recommend("balanced")
        assert 2 <= rec.scheme.m <= 8  # the paper picks M=4 for TPC-B

    def test_n_from_flash_type(self):
        samples = tpcb_like_samples()
        slc = IPAAdvisor(samples, cell_type=CellType.SLC).recommend("space")
        mlc = IPAAdvisor(samples, cell_type=CellType.MLC).recommend("space")
        assert slc.scheme.n >= mlc.scheme.n

    def test_space_budget_respected(self):
        big = [120] * 500  # LinkBench-ish updates
        advisor = IPAAdvisor(big, page_size=4096)
        rec = advisor.recommend("longevity", space_budget=0.05)
        assert rec.space_overhead <= 0.05 + 1e-9

    def test_m_capped_at_125(self):
        advisor = IPAAdvisor([4000] * 100, page_size=65536)
        rec = advisor.recommend("longevity", space_budget=0.5)
        assert rec.scheme.m <= 125

    def test_unknown_goal_rejected(self):
        advisor = IPAAdvisor([4])
        with pytest.raises(IPAError):
            advisor.recommend("speed!")

    def test_empty_profile_rejected(self):
        with pytest.raises(IPAError):
            IPAAdvisor([])

    def test_covered_percentile_reported(self):
        advisor = IPAAdvisor(tpcb_like_samples())
        rec = advisor.recommend("longevity")
        assert rec.covered_percentile >= 85.0

    def test_str_rendering(self):
        advisor = IPAAdvisor(tpcb_like_samples())
        text = str(advisor.recommend("balanced"))
        assert "IPA" in text and "space" in text


class TestPrediction:
    def test_estimate_matches_renewal_model(self):
        """Uniform 4-byte updates under [2x4]: append, append, reset."""
        advisor = IPAAdvisor([4] * 3000, [2] * 3000)
        estimate = advisor.estimate_ipa_fraction(NxMScheme(2, 4))
        assert estimate == pytest.approx(2 / 3, abs=0.01)

    def test_estimate_zero_for_oversized_updates(self):
        advisor = IPAAdvisor([500] * 100)
        assert advisor.estimate_ipa_fraction(NxMScheme(2, 4)) == 0.0

    def test_estimate_off_scheme(self):
        advisor = IPAAdvisor([4] * 10)
        from repro.core import SCHEME_OFF

        assert advisor.estimate_ipa_fraction(SCHEME_OFF) == 0.0

    def test_from_collector(self):
        collector = UpdateSizeCollector()
        for net, gross in [(4, 6), (3, 5), (8, 12)]:
            collector(0, "oop", net, gross, False)
        collector(0, "new", 100, 100, False)  # excluded
        advisor = IPAAdvisor.from_collector(collector)
        assert advisor.net_sizes == [4, 3, 8]
        assert advisor.meta_sizes == [2, 2, 4]

    def test_prediction_close_to_engine_measurement(self):
        """End-to-end: advisor prediction vs a real engine run."""
        from repro.session import SessionConfig, open_session
        from repro.testbed import load_scaled
        from repro.workloads import TPCB, TPCBConfig
        from repro.core import SCHEME_OFF

        def profiled_run(scheme):
            engine = open_session(SessionConfig(
                logical_pages=400, chips=4, scheme=scheme, buffer_pages=400,
                engine=dict(log_capacity_bytes=600_000),
            )).engine
            collector = UpdateSizeCollector()
            engine.add_flush_observer(collector)
            workload = TPCB(TPCBConfig(accounts_per_branch=8000))
            driver = load_scaled(engine, workload, buffer_fraction=0.25)
            collector.net_sizes.clear()
            collector.gross_sizes.clear()
            driver.run(2500)
            return engine, collector

        __, collector = profiled_run(SCHEME_OFF)
        advisor = IPAAdvisor.from_collector(collector)
        rec = advisor.recommend("balanced")
        engine, __ = profiled_run(rec.scheme)
        measured = engine.ipa.stats.ipa_fraction
        assert abs(measured - rec.expected_ipa_fraction) < 0.25
        assert measured > 0.3
