"""Unit tests for the cost model formulas and local calibration."""
import pytest

from repro.core.cost import CostModel, calibrate_beta_pre, calibrate_beta_raw


def model(**kw) -> CostModel:
    base = dict(
        alpha=1000.0,
        beta_pre=500.0,
        beta_raw=10.0,
        gamma=2000.0,
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
        cm = model()
        c = cm.cost_M([100, 200], join_work=350)
        assert c == pytest.approx(300 / 1000.0 + 350 / 2000.0)

    def test_cost_M_join_work_override(self):
        """A bag whose pre-join pipeline blows up intermediates costs more
        than one with the same inputs whose pipeline does not: the work,
        not the inputs, sets the join term."""
        cm = model()
        cheap = cm.cost_M([100, 100], join_work=250)
        pricey = cm.cost_M([100, 100], join_work=1_000_000)
        assert pricey > cheap
        assert pricey == pytest.approx(200 / 1000.0 + 1_000_000 / 2000.0)

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
