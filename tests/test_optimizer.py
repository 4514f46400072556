"""Unit tests for the Alg. 2 plan optimizer."""
import itertools
import time

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core import optimizer
from repro.core.cost import CostModel
from repro.core.hypertree import find_hypertree
from repro.core.optimizer import PlanChoice, connected_order, optimize
from repro.core.query import JoinQuery, Relation, get_query
from repro.core.sampling import estimate_cardinality_local, project_db
from repro.hcube.shares import derive_memory
from repro.synth_data import (
    PAPER_TABLE1,
    dataset_pdf,
    graph_edges_pdf,
    tiny_graph_pdf,
)


def db_for(qname, edges):
    q = get_query(qname)
    rows = edges[["src", "dst"]].to_numpy()
    return q, {r.name: (r.attrs, rows) for r in q.relations}


def model(beta_raw=10.0, beta_pre=10_000.0, alpha=1e6, gamma=1e6, M=None):
    return CostModel(
        alpha=alpha,
        beta_pre=beta_pre,
        beta_raw=beta_raw,
        gamma=gamma,
        n_servers=4,
        memory_tuples=M,
    )


class TestOptimize:
    def test_returns_valid_plan(self):
        q, db = db_for("Q4", tiny_graph_pdf())
        plan = optimize(q, db, model(), sample_k=30)
        assert isinstance(plan, PlanChoice)
        assert sorted(plan.order) == sorted(q.attrs)
        assert sorted(plan.traversal) == list(range(len(plan.hypertree.bags)))
        # traversal is a valid (prefix-connected) order
        t = plan.hypertree
        for i in range(1, len(plan.traversal) + 1):
            assert t.is_connected_subset(set(plan.traversal[:i]))

    def test_attribute_order_is_hypertree_valid(self):
        q, db = db_for("Q5", tiny_graph_pdf())
        plan = optimize(q, db, model(), sample_k=30)
        assert plan.hypertree.is_valid_attribute_order(plan.order)

    def test_precompute_only_multi_relation_bags(self):
        q, db = db_for("Q6", tiny_graph_pdf())
        plan = optimize(q, db, model(), sample_k=30)
        for i in plan.precompute:
            assert plan.hypertree.bags[i].needs_precompute

    def test_cheap_computation_means_no_precompute(self):
        """If raw extension is as fast as pre-computed extension there is
        no computation to trade — the optimizer must keep C empty."""
        q, db = db_for("Q4", tiny_graph_pdf())
        cm = model(beta_raw=1e9, beta_pre=1e9, alpha=1e3, gamma=1e3)
        plan = optimize(q, db, cm, sample_k=30)
        assert plan.precompute == frozenset()

    def test_expensive_computation_triggers_precompute(self):
        """If raw extension is catastrophically slow while shuffles and
        pre-joins are free, pre-computing must be selected for Q4 (which
        has multi-relation bags)."""
        q, db = db_for("Q4", tiny_graph_pdf())
        cm = model(beta_raw=1e-3, beta_pre=1e9, alpha=1e9, gamma=1e9)
        plan = optimize(q, db, cm, sample_k=30)
        assert len(plan.precompute) > 0

    def test_final_relations_consistency(self):
        q, db = db_for("Q5", tiny_graph_pdf())
        plan = optimize(q, db, model(beta_raw=1e-3, beta_pre=1e9), sample_k=30)
        rels = plan.final_relations()
        names = [n for n, _ in rels]
        assert len(names) == len(set(names))
        # every original relation accounted for: either directly or
        # inside a pre-computed bag
        covered = set()
        for n, attrs in rels:
            if n.startswith("bag"):
                idx = int(n[3:])
                covered |= {
                    r.name for r in plan.hypertree.bags[idx].relations
                }
            else:
                covered.add(n)
        assert covered == {r.name for r in q.relations}

    def test_est_breakdown_present(self):
        q, db = db_for("Q4", tiny_graph_pdf())
        plan = optimize(q, db, model(), sample_k=30)
        assert "rounds" in plan.est and len(plan.est["rounds"]) == len(
            plan.hypertree.bags
        )
        assert plan.est["cost_C"] >= 0

    def test_shares_cover_all_attrs(self):
        q, db = db_for("Q2", tiny_graph_pdf())
        plan = optimize(q, db, model(M=500), sample_k=30)
        assert set(plan.shares.p) == set(q.attrs)

    def test_single_bag_query(self):
        """Q1's hypertree is effectively one bag — the optimizer must
        still return a working plan."""
        q, db = db_for("Q1", tiny_graph_pdf())
        plan = optimize(q, db, model(), sample_k=30)
        assert sorted(plan.order) == ["a", "b", "c"]


def duck_prefix_counts(db, rels):
    """DuckDB's count of each join of the first j ≥ 2 of ``rels``, with
    the natural join spelled out as equalities (DuckDB plans a chain of
    ``NATURAL JOIN``s over a cyclic query poorly)."""
    con = duckdb.connect()
    try:
        for r in rels:
            attrs, rows = db[r.name]
            con.register(r.name, pd.DataFrame(rows, columns=list(attrs)))
        counts = []
        first: dict[str, str] = {}
        where: list[str] = []
        for j, r in enumerate(rels):
            for a in r.attrs:
                ref = f"{r.name}.{a}"
                if a in first:
                    where.append(f"{ref} = {first[a]}")
                else:
                    first[a] = ref
            if j:
                sql = "SELECT count(*) FROM " + ", ".join(
                    x.name for x in rels[: j + 1]
                )
                if where:
                    sql += " WHERE " + " AND ".join(where)
                counts.append(con.execute(sql).fetchone()[0])
        return counts
    finally:
        con.close()


class TestBagCounts:
    """``cost_M``'s |R_v| and pipeline work are exact: each step of
    ``Bag.join_order()`` counted on the Leapfrog kernel equals DuckDB's
    count of that join."""

    @staticmethod
    def check_bags(q, db):
        est = optimizer._Estimator(db, q, 30, 0)
        bags = [b for b in find_hypertree(q).bags if b.needs_precompute]
        for bag in bags:
            rels = bag.join_order()
            steps = duck_prefix_counts(db, rels)
            assert est.bag_join_size(bag) == steps[-1], bag
            assert est.join_work(bag) == (
                sum(len(db[r.name][1]) for r in rels) + sum(steps)
            ), bag
        return bags

    @pytest.mark.parametrize("qname", ["Q2", "Q3", "Q4", "Q5", "Q6"])
    def test_graph_query_bags(self, qname):
        self.check_bags(*db_for(qname, tiny_graph_pdf()))

    def test_bags_with_a_ternary_relation(self):
        rng = np.random.default_rng(3)
        schemas = {
            "R1": ("a", "b", "c"),
            "R2": ("c", "d"),
            "R3": ("d", "e"),
            "R4": ("e", "a"),
            "R5": ("b", "d"),
        }
        q = JoinQuery("T", [Relation(n, a) for n, a in schemas.items()])
        db = {
            n: (a, np.unique(rng.integers(0, 12, (400, len(a))), axis=0))
            for n, a in schemas.items()
        }
        bags = self.check_bags(q, db)
        assert len(bags) == 2
        assert any("R1" in {r.name for r in b.relations} for b in bags)

    def test_ok_q5_bag_past_the_old_row_cap(self):
        """Bag {a,b,e} of OK×1e-3 Q5: its pipeline's first step is a
        14,573,865-row 2-path (counts checked with DuckDB)."""
        q, db = db_for("Q5", dataset_pdf("OK"))
        bag = find_hypertree(q).bags[0]
        assert bag.attr_set == frozenset("abe")
        est = optimizer._Estimator(db, q, 60, 0)
        assert est.bag_join_size(bag) == 120_042
        assert est.join_work(bag) == 15_391_839


class TestCapped:
    def test_capped_prefix_estimates_flagged(self, monkeypatch):
        monkeypatch.setattr(optimizer._Estimator, "BUDGET_PER_CALL", 1e-9)
        q, db = db_for("Q4", tiny_graph_pdf())
        plan = optimize(q, db, model(), sample_k=30)
        assert plan.est["capped"]
        for order in plan.est["capped"]:
            assert set(order) <= set(q.attrs)


class TestPrefixOrder:
    @pytest.mark.parametrize("qname", ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"])
    def test_same_estimate_no_more_work_than_query_order(self, qname):
        """Every prefix set's estimate in the connected order equals the
        query-order one (same sampled attribute, seed and per-value
        counts); only the extensions may drop."""
        q, db = db_for(qname, tiny_graph_pdf(n_edges=400, n_nodes=50, seed=5))
        for n in range(1, len(q.attrs) + 1):
            for attrs in itertools.combinations(q.attrs, n):
                query_order = tuple(attrs)  # combinations keep query order
                order = connected_order(frozenset(attrs), q)
                assert order[0] == query_order[0]
                assert sorted(order) == sorted(query_order)
                sub = project_db(db, attrs)
                base, got = (
                    estimate_cardinality_local(sub, o, k=30, seed=3)
                    for o in (query_order, order)
                )
                for f in ("estimate", "val_count", "k", "mean_x"):
                    assert getattr(got, f) == getattr(base, f), (attrs, f)
                assert got.extensions <= base.extensions, attrs

    def test_q4_prefix_follows_shared_relations(self):
        """{a,b,d,e} of Q4: after a-b, e shares two relations (ea, be)
        with the bound attributes and d none."""
        q = get_query("Q4")
        assert connected_order(frozenset("abde"), q) == ("a", "b", "e", "d")


class TestDeterminism:
    """For a given seed the plan is a function of the sampled counts: it
    does not depend on the speed of the machine, nor on the sampler's
    safety budget, while no estimate reaches that budget."""

    @pytest.mark.parametrize("graph_seed", [14, 1014])
    @pytest.mark.parametrize("qname", ["Q4", "Q5", "Q6"])
    def test_plan_independent_of_clock_and_budget(
        self, monkeypatch, qname, graph_seed
    ):
        # the LJ stand-in at 1e-4 (6,546 edges), as in the benchmark
        rows = graph_edges_pdf(
            n_edges=int(PAPER_TABLE1["LJ"][0] * 1e-4), seed=graph_seed
        )[["src", "dst"]].to_numpy()
        q = get_query(qname)
        db = {r.name: (r.attrs, rows) for r in q.relations}
        cm = CostModel(
            alpha=6e5,
            beta_pre=5e6,
            beta_raw=1e5,
            gamma=4.8e5,
            n_servers=16,
            memory_tuples=derive_memory(
                q.attrs, [(r.attrs, len(rows)) for r in q.relations], 16
            ),
        )
        estimates = []
        sample = optimizer.estimate_cardinality_local

        def recorded(*args, **kwargs):
            est = sample(*args, **kwargs)
            estimates.append((est, kwargs["k"]))
            return est

        monkeypatch.setattr(optimizer, "estimate_cardinality_local", recorded)

        def plan():
            p = optimize(q, db, cm, sample_k=60, seed=14)
            return (
                sorted(p.precompute),
                p.order,
                p.shares.p,
                p.est["rounds"],
                p.est["capped"],
            )

        base = plan()
        real = time.monotonic
        with monkeypatch.context() as m:
            # every duration the sampler and the kernel measure reads 4×
            # longer: a 4× CPU slowdown
            m.setattr(time, "monotonic", lambda: 4 * real())
            slow = plan()
        with monkeypatch.context() as m:
            m.setattr(
                optimizer._Estimator,
                "BUDGET_PER_CALL",
                4 * optimizer._Estimator.BUDGET_PER_CALL,
            )
            budget = plan()
        assert slow == base
        assert budget == base
        assert base[-1] == []
        # the property holds because no estimate was cut by the budget
        assert estimates
        assert all(e.k == min(k, e.val_count) for e, k in estimates)
