"""Unit tests for the cost model formulas and local calibration."""
import pytest

from repro.core.cost import (
    CostModel,
    calibrate_beta_pre,
    calibrate_beta_raw,
    calibrate_gamma,
)


def model(**kw) -> CostModel:
    base = dict(
        alpha=1000.0,
        beta_pre=500.0,
        beta_raw=10.0,
        gamma=0.5,
        n_servers=4,
        memory_tuples=None,
    )
    base.update(kw)
    return CostModel(**base)


TRIANGLE = [(("a", "b"), 100), (("b", "c"), 100), (("a", "c"), 100)]


class TestCostFormulas:
    def test_cost_C_uses_optimal_shares(self):
        cm = model(memory_tuples=150)
        secs, sh = cm.cost_C(("a", "b", "c"), TRIANGLE)
        assert secs == pytest.approx(sh.comm / 1000.0)
        assert sh.feasible

    def test_cost_E_beta_switch(self):
        cm = model()
        raw = cm.cost_E(1000, precomputed=False)
        pre = cm.cost_E(1000, precomputed=True)
        assert raw == pytest.approx(1000 / (10.0 * 4))
        assert pre == pytest.approx(1000 / (500.0 * 4))
        assert pre < raw

    def test_cost_M_components(self):
        """γ seconds for the extra round, the shuffle of the covered
        relations at α, and W_v extensions at β_raw over N servers."""
        cm = model(gamma=0.6, memory_tuples=150)
        comm, _ = cm.cost_C(("a", "b", "c"), TRIANGLE)
        c = cm.cost_M(("a", "b", "c"), TRIANGLE, work=350)
        assert c == pytest.approx(0.6 + comm + 350 / (10.0 * 4))

    def test_cost_M_join_work_override(self):
        """A bag whose Leapfrog does more extensions costs more than one
        with the same inputs: the work, not the inputs, sets the join
        term, and γ is paid however small the bag."""
        cm = model()
        cheap = cm.cost_M(("a", "b", "c"), TRIANGLE, work=0)
        pricey = cm.cost_M(("a", "b", "c"), TRIANGLE, work=1_000_000)
        assert cheap >= cm.gamma
        assert pricey - cheap == pytest.approx(1_000_000 / (10.0 * 4))

    def test_more_servers_cheaper_computation(self):
        c4 = model(n_servers=4).cost_E(1000, precomputed=False)
        c16 = model(n_servers=16).cost_E(1000, precomputed=False)
        assert c16 < c4


class TestCalibration:
    def test_beta_pre_positive_and_repeatable_scale(self):
        b1 = calibrate_beta_pre(size=5_000, queries=2_000, seed=0)
        assert b1 > 0
        # trie queries are cheap: at least thousands per second
        assert b1 > 1_000

    def test_beta_raw_positive_and_slower_than_a_lookup(self):
        """β_raw times whole Leapfrog extensions (several candidate lists
        intersected per binding), β_pre single batched trie lookups."""
        raw = calibrate_beta_raw()
        assert raw > 1_000
        assert raw < calibrate_beta_pre()

    def test_gamma_is_the_seconds_of_one_round(self, spark):
        """γ is a wall time in seconds, of a warm one-round join so small
        that nothing but the round's fixed cost shows, and it is cached
        per session."""
        gamma = calibrate_gamma(spark)
        assert 0 < gamma < 30
        assert calibrate_gamma(spark) == gamma
