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
from repro.core.sampling import estimate_cardinality_local
from repro.hcube.shares import derive_memory, optimize_shares
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import trie_for_order
from repro.synth_data import (
    PAPER_TABLE1,
    dataset_pdf,
    graph_edges_pdf,
    tiny_graph_pdf,
)
from tests.test_hypertree import is_valid_attribute_order


def db_for(qname, edges):
    q = get_query(qname)
    rows = edges[["src", "dst"]].to_numpy()
    return q, {r.name: (r.attrs, rows) for r in q.relations}


def model(beta_raw=10.0, beta_pre=10_000.0, alpha=1e6, gamma=0.5, M=None):
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
        assert is_valid_attribute_order(plan.hypertree, plan.order)

    def test_precompute_only_multi_relation_bags(self):
        q, db = db_for("Q6", tiny_graph_pdf())
        plan = optimize(q, db, model(), sample_k=30)
        for i in plan.precompute:
            assert plan.hypertree.bags[i].needs_precompute

    def test_cheap_computation_means_no_precompute(self):
        """If raw extension is as fast as pre-computed extension there is
        no computation to trade — the optimizer must keep C empty."""
        q, db = db_for("Q4", tiny_graph_pdf())
        cm = model(beta_raw=1e9, beta_pre=1e9, alpha=1e3, gamma=1.0)
        plan = optimize(q, db, cm, sample_k=30)
        assert plan.precompute == frozenset()

    def test_expensive_computation_triggers_precompute(self):
        """If raw extension is catastrophically slow while shuffles and
        pre-joins are free, pre-computing must be selected for Q4 (which
        has multi-relation bags)."""
        q, db = db_for("Q4", tiny_graph_pdf())
        cm = model(beta_raw=1e-3, beta_pre=1e9, alpha=1e9, gamma=0.0)
        plan = optimize(q, db, cm, sample_k=30)
        assert len(plan.precompute) > 0

    def test_final_relations_consistency(self, monkeypatch):
        # pre-compute {a,b,e} only: Q_i mixes a bag and raw relations
        monkeypatch.setattr(
            CostModel,
            "cost_M",
            lambda self, attrs, *_: (
                -np.inf if set(attrs) == set("abe") else np.inf
            ),
        )
        q, db = db_for("Q5", tiny_graph_pdf())
        plan = optimize(q, db, model(), sample_k=30)
        assert plan.precompute == {0}
        names = [n for n, _, _ in plan.relations]
        assert len(names) == len(set(names))
        # every original relation accounted for: either directly or
        # inside a pre-computed bag, which is listed over its join order
        # with its exact |R_v|
        covered = set()
        for n, attrs, size in plan.relations:
            if n.startswith("bag"):
                bag = plan.hypertree.bags[int(n[3:])]
                covered |= {r.name for r in bag.relations}
                rels, order = optimizer.bag_join(q, bag)
                assert attrs == order
                tries = [
                    trie_for_order(db[r.name][1], r.attrs, order)
                    for r in rels
                ]
                counted = leapfrog(tries, order, emit=False)
                assert size == counted.count
            else:
                covered.add(n)
                assert (attrs, size) == (db[n][0], len(db[n][1]))
        assert covered == {r.name for r in q.relations}
        # the plan's shares are the optimum for exactly these relations
        specs = [(attrs, size) for _, attrs, size in plan.relations]
        assert plan.shares == optimize_shares(q.attrs, specs, 4, None)

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


def duck_count(db, rels, attrs):
    """DuckDB's count of the join of ``rels`` projected onto ``attrs``
    (each relation's overlap, distinct; relations with none left out),
    with the natural join spelled out as equalities (DuckDB plans a chain
    of ``NATURAL JOIN``s over a cyclic query poorly). On a prefix of a
    Leapfrog order this is the kernel's |T^i|."""
    con = duckdb.connect()
    try:
        froms, where, first = [], [], {}
        for r in rels:
            rattrs, rows = db[r.name]
            cols = [a for a in rattrs if a in attrs]
            if not cols:
                continue
            pdf = pd.DataFrame(rows, columns=list(rattrs))[cols]
            con.register(r.name, pdf.drop_duplicates())
            froms.append(r.name)
            for a in cols:
                ref = f"{r.name}.{a}"
                if a in first:
                    where.append(f"{ref} = {first[a]}")
                else:
                    first[a] = ref
        sql = "SELECT count(*) FROM " + ", ".join(froms)
        if where:
            sql += " WHERE " + " AND ".join(where)
        return con.execute(sql).fetchone()[0]
    finally:
        con.close()


class TestBagCounts:
    """``cost_M``'s |R_v| and W_v are exact: |R_v| is DuckDB's count of
    the join of every relation the bag covers, and W_v the sum of that
    join's prefix counts along the bag's order, Σ|T^i|."""

    @staticmethod
    def check_bags(q, db):
        est = optimizer._Estimator(db, q, 30, 0)
        bags = [b for b in find_hypertree(q).bags if b.needs_precompute]
        for bag in bags:
            covered = [r for r in q.relations if r.attr_set <= bag.attr_set]
            _, order = optimizer.bag_join(q, bag)
            assert set(order) == bag.attr_set
            assert est.bag(bag)[0] == duck_count(db, covered, order), bag
            assert est.bag(bag)[1] == sum(
                duck_count(db, covered, order[: i + 1])
                for i in range(len(order))
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
        """Bag {a,b,e} of OK×1e-3 Q5: the triangles R1 ⋈ R5 ⋈ R6, whose
        2-path R1 ⋈ R5 has 14,573,865 rows (counts checked with DuckDB)."""
        q, db = db_for("Q5", dataset_pdf("OK"))
        bag = find_hypertree(q).bags[0]
        assert bag.attr_set == frozenset("abe")
        est = optimizer._Estimator(db, q, 60, 0)
        assert est.bag(bag)[0] == 120_042
        assert est.bag(bag)[1] == 371_837

    def test_ok_q4_bag_covers_r6(self):
        """Q4 assigns R6(b,e) to {b,d,e}, yet {a,b,e} covers it too: on
        OK×1e-3 the bag is the same 120,042 triangles as Q5's, not the
        14,573,865-row 2-path of its λ(v) = {R1, R5}."""
        q, db = db_for("Q4", dataset_pdf("OK"))
        bag = find_hypertree(q).bags[0]
        assert bag.attr_set == frozenset("abe")
        assert {r.name for r in bag.relations} == {"R1", "R5"}
        est = optimizer._Estimator(db, q, 60, 0)
        assert est.bag(bag)[0] == 120_042

    def test_bag_order_is_connected(self):
        """Q4's {b,d,e} covers R4(d,e) and R6(b,e): its query order b-d-e
        binds b×d as a cross product, the connected order does not. W_v
        stays within the inputs plus the result, which the query order's
        extensions exceed on this graph."""
        q, db = db_for("Q4", tiny_graph_pdf(n_edges=1000, n_nodes=300, seed=2))
        bag = find_hypertree(q).bags[2]
        assert bag.attrs == ("b", "d", "e")
        est = optimizer._Estimator(db, q, 30, 0)
        bound = len(db["R4"][1]) + len(db["R6"][1]) + est.bag(bag)[0]
        assert est.bag(bag)[1] <= bound
        by_query_order = leapfrog(
            [
                trie_for_order(db[r][1], db[r][0], bag.attrs)
                for r in ("R4", "R6")
            ],
            bag.attrs,
            emit=False,
        )
        assert by_query_order.count == est.bag(bag)[0]
        assert by_query_order.extensions > bound


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
                base, got = (
                    estimate_cardinality_local(db, o, k=30, seed=3)
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


#: the plans of the LJ×1e-4 benchmark graphs under TestDeterminism's
#: model: distributed bags, bags joined on the servers, attribute order,
#: shares above 1
LJ_1E4_PLANS = {
    "Q4": ([], [0], tuple("bcdea"), {"b": 2, "e": 2}),
    "Q5": ([], [0], tuple("bdeca"), {"b": 2, "e": 2}),
    "Q6": ([], [], tuple("beacd"), {"b": 2, "e": 2}),
}


class TestDeterminism:
    """For a given seed the plan is a function of the sampled counts: it
    does not depend on the speed of the machine, nor on the sampler's
    safety budget, while no estimate reaches that budget. On both graphs
    it is the plan ``LJ_1E4_PLANS`` lists."""

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
            gamma=0.6,
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
                sorted(p.on_server),
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
        precompute, on_server, order, shares = LJ_1E4_PLANS[qname]
        assert base[:4] == (
            precompute,
            on_server,
            order,
            {a: shares.get(a, 1) for a in q.attrs},
        )
        assert base[-1] == []
        # the property holds because no estimate was cut by the budget
        assert estimates
        assert all(e.k == min(k, e.val_count) for e, k in estimates)
