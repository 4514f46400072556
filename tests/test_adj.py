"""End-to-end Spark tests for ADJ (co-optimization strategy, §III)."""
import itertools
import math

import duckdb
import pytest

from repro.core.adj import ADJConfig, precompute_bags, relation_dfs, run_adj
from repro.core.cost import CostModel
from repro.core.hypertree import find_hypertree
from repro.core.optimizer import optimize
from repro.core.query import get_query
from repro.hcube.shares import derive_memory, server_load
from repro.oracle import assert_equivalent
from repro.synth_data import tiny_graph_pdf


def _duck_count(sql, edges_pdf):
    con = duckdb.connect()
    try:
        con.register("e", edges_pdf)
        return con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
    finally:
        con.close()


EDGES = tiny_graph_pdf()

FAST_CM = CostModel(
    alpha=1e6, beta_pre=1e5, beta_raw=1e3, gamma=1e6, n_servers=4
)


def cfg(**kw) -> ADJConfig:
    base = dict(n_servers=4, sample_k=25, beta_source="model")
    base.update(kw)
    return ADJConfig(**base)


class TestPrecomputeBags:
    def test_bag_join_matches_oracle(self, spark):
        """A pre-computed bag relation equals the Catalyst/DuckDB join of
        its λ(v) relations."""
        q = get_query("Q4")
        t = find_hypertree(q)
        rows = EDGES[["src", "dst"]].to_numpy()
        db = {r.name: (r.attrs, rows) for r in q.relations}
        # force pre-computation of every multi-relation bag
        cm = CostModel(alpha=1e9, beta_pre=1e9, beta_raw=1e-6, gamma=1e9, n_servers=4)
        plan = optimize(q, db, cm, sample_k=20, beta_source="model")
        assert plan.precompute, "expected at least one pre-computed bag"
        edges = spark.createDataFrame(EDGES)
        rels = relation_dfs(edges, q)
        bag_dfs, sizes = precompute_bags(spark, plan, rels)
        for bag in plan.precomputed_bags:
            name = f"bag{bag.index}"
            sub = get_query("Q4")  # reuse namespace; build SQL by hand
            froms, wheres, first = [], [], {}
            for i, r in enumerate(bag.relations):
                froms.append(f"e r{i}")
                for a, c in zip(r.attrs, ("src", "dst")):
                    ref = f"r{i}.{c}"
                    if a in first:
                        wheres.append(f"{ref} = {first[a]}")
                    else:
                        first[a] = ref
            sel = ", ".join(f"{first[a]} AS {a}" for a in bag.attrs)
            sql = f"SELECT {sel} FROM {', '.join(froms)}"
            if wheres:
                sql += " WHERE " + " AND ".join(wheres)
            assert_equivalent(bag_dfs[name], sql, e=EDGES)
            assert sizes[name] == bag_dfs[name].count()
            bag_dfs[name].unpersist()


class TestRunADJ:
    @pytest.mark.parametrize("qname", ["Q1", "Q2", "Q4"])
    def test_count_matches_oracle(self, spark, qname):
        q = get_query(qname)
        edges = spark.createDataFrame(EDGES)
        rep = run_adj(spark, q, edges, cfg(), cost_model=FAST_CM)
        assert rep.result_count == _duck_count(q.to_sql(), EDGES)
        assert rep.strategy == "Co-Optimization"

    def test_q5_q6_with_forced_precompute(self, spark):
        """With computation made expensive the plan pre-computes bags and
        the result is still exact."""
        cm = CostModel(
            alpha=1e9, beta_pre=1e9, beta_raw=1e-6, gamma=1e9, n_servers=4
        )
        for qname in ["Q5", "Q6"]:
            q = get_query(qname)
            edges = spark.createDataFrame(EDGES)
            rep = run_adj(spark, q, edges, cfg(), cost_model=cm)
            assert rep.detail["plan"]["precompute"], qname
            assert rep.result_count == _duck_count(q.to_sql(), EDGES)
            assert rep.pre_computing > 0

    def test_enumerated_rows_match_oracle(self, spark):
        q = get_query("Q1")
        edges = spark.createDataFrame(EDGES)
        rep = run_adj(
            spark, q, edges, cfg(count_only=False), cost_model=FAST_CM
        )
        df = rep.detail["result_df"]
        assert_equivalent(df.select(*q.attrs), q.to_sql(), e=EDGES)

    def test_phase_report_complete(self, spark):
        q = get_query("Q4")
        edges = spark.createDataFrame(EDGES)
        rep = run_adj(spark, q, edges, cfg(), cost_model=FAST_CM)
        assert rep.optimization > 0
        assert rep.communication > 0
        assert rep.computation > 0
        assert rep.total == pytest.approx(
            rep.optimization
            + rep.pre_computing
            + rep.communication
            + rep.computation
        )
        assert "shares_final" in rep.detail
        assert rep.detail["shuffled_tuples"] > 0

    def test_order_is_hypertree_valid(self, spark):
        q = get_query("Q5")
        edges = spark.createDataFrame(EDGES)
        rep = run_adj(spark, q, edges, cfg(), cost_model=FAST_CM)
        t = find_hypertree(q)
        assert t.is_valid_attribute_order(tuple(rep.detail["plan"]["order"]))

    def test_timeout_reported(self, spark):
        big = tiny_graph_pdf(n_edges=3000, n_nodes=60, seed=8)
        q = get_query("Q4")
        edges = spark.createDataFrame(big)
        rep = run_adj(
            spark, q, edges, cfg(budget_seconds=1e-4), cost_model=FAST_CM
        )
        assert rep.timed_out
        assert rep.result_count is None


class TestDeriveMemory:
    def test_twice_min_achievable_load(self):
        q = get_query("Q1")
        specs = [(r.attrs, 100) for r in q.relations]
        min_load = min(
            server_load(specs, dict(zip(q.attrs, p)))
            for p in itertools.product(range(1, 9), repeat=len(q.attrs))
            if math.prod(p) <= 8
        )
        assert min_load > 0
        assert derive_memory(q.attrs, specs, 8) == pytest.approx(2 * min_load)

    def test_more_servers_smaller_min_load(self):
        q = get_query("Q1")
        specs = [(r.attrs, 100) for r in q.relations]
        assert derive_memory(q.attrs, specs, 16) < derive_memory(
            q.attrs, specs, 4
        )
