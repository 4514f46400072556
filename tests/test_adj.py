"""End-to-end Spark tests for ADJ (co-optimization strategy, §III)."""
import itertools
import math

import duckdb
import pytest

from repro.core.adj import ADJConfig, precompute_bags, run_adj
from repro.core.cost import CostModel
from repro.core.executor import JoinTimings
from repro.core.hypertree import find_hypertree
from repro.core.optimizer import bag_join, optimize
from repro.core.query import get_query
from repro.hcube.shares import derive_memory
from repro.oracle import assert_equivalent
from repro.synth_data import tiny_graph_pdf
from tests.test_hypertree import is_valid_attribute_order
from tests.test_shares import server_load


def _duck_count(sql, edges_pdf):
    con = duckdb.connect()
    try:
        con.register("e", edges_pdf)
        return con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
    finally:
        con.close()


EDGES = tiny_graph_pdf()

FAST_CM = CostModel(
    alpha=1e6, beta_pre=1e5, beta_raw=1e3, gamma=0.5, n_servers=4
)


def cfg(**kw) -> ADJConfig:
    base = dict(n_servers=4, sample_k=25)
    base.update(kw)
    return ADJConfig(**base)


class TestPrecomputeBags:
    def test_bag_join_matches_oracle(self, spark, forced_precompute):
        """A pre-computed bag relation equals DuckDB's join of every
        relation the bag covers (Q4's {a,b,e} is R1 ⋈ R5 filtered by R6),
        its columns follow the plan's relation, and its reported size is
        its row count, the plan's |R_v|."""
        q = get_query("Q4")
        rows = EDGES[["src", "dst"]].to_numpy()
        db = {r.name: (r.attrs, rows) for r in q.relations}
        plan = optimize(q, db, FAST_CM, sample_k=20)
        planned = {name: (attrs, n) for name, attrs, n in plan.relations}
        edges = spark.createDataFrame(EDGES)
        bag_dfs, sizes = precompute_bags(
            spark, plan, edges, len(rows), cfg(), mem=len(rows)
        )
        assert len(bag_dfs) == 3
        for bag in plan.precomputed_bags:
            name = f"bag{bag.index}"
            rels, _ = bag_join(q, bag)
            if bag.attr_set == frozenset("abe"):
                assert [r.name for r in rels] == ["R1", "R5", "R6"]
            froms, wheres, first = [], [], {}
            for i, r in enumerate(rels):
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
            assert sizes[name] == bag_dfs[name].count() == planned[name][1]
            assert tuple(bag_dfs[name].columns) == planned[name][0]
            bag_dfs[name].unpersist()


class TestRunADJ:
    @pytest.mark.parametrize("qname", ["Q1", "Q2", "Q4"])
    def test_count_matches_oracle(self, spark, qname):
        q = get_query(qname)
        edges = spark.createDataFrame(EDGES)
        rep = run_adj(spark, q, edges, cfg(), cost_model=FAST_CM)
        assert rep.result_count == _duck_count(q.to_sql(), EDGES)
        assert rep.strategy == "Co-Optimization"

    def test_q5_q6_with_forced_precompute(self, spark, forced_precompute):
        """With every bag pre-computed the result is still exact."""
        for qname in ["Q5", "Q6"]:
            q = get_query(qname)
            edges = spark.createDataFrame(EDGES)
            rep = run_adj(spark, q, edges, cfg(), cost_model=FAST_CM)
            assert rep.detail["plan"]["precompute"], qname
            forced_precompute.check_last_run()
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
        assert set(rep.detail["plan"]["shares"]) == set(q.attrs)
        assert rep.detail["shuffled_tuples"] > 0
        assert rep.detail["straggler_ratio"] >= 1.0
        assert rep.detail["plan"]["capped"] == []

    def test_order_is_hypertree_valid(self, spark):
        q = get_query("Q5")
        edges = spark.createDataFrame(EDGES)
        rep = run_adj(spark, q, edges, cfg(), cost_model=FAST_CM)
        t = find_hypertree(q)
        assert is_valid_attribute_order(t, rep.detail["plan"]["order"])

    def test_timeout_reported(self, spark):
        big = tiny_graph_pdf(n_edges=3000, n_nodes=60, seed=8)
        q = get_query("Q4")
        edges = spark.createDataFrame(big)
        rep = run_adj(
            spark, q, edges, cfg(budget_seconds=1e-4), cost_model=FAST_CM
        )
        assert rep.timed_out
        assert rep.result_count is None

    def test_timeout_with_bags_on_servers(self, spark, forced_on_server):
        """A round whose servers join bags before the final Leapfrog
        overruns its budget as a returned state, not a failed job."""
        big = tiny_graph_pdf(n_edges=3000, n_nodes=60, seed=8)
        q = get_query("Q4")
        edges = spark.createDataFrame(big)
        rep = run_adj(
            spark, q, edges, cfg(budget_seconds=1e-4), cost_model=FAST_CM
        )
        forced_on_server.check_last_run()
        assert rep.timed_out
        assert rep.result_count is None
        assert forced_on_server.joins[-1][2].timed_out


class _BagDF:
    """Stands in for a pre-computed bag's DataFrame."""

    def __init__(self, columns):
        self.columns = list(columns)

    def unpersist(self):
        pass


class TestRunADJWiring:
    """Spark-free: the final round runs the plan Alg. 2 returned, its
    relations, attribute order and share vector, and derives none of them
    again."""

    @staticmethod
    def _run(monkeypatch, distributed=None, on_server=None):
        """``run_adj`` on Q4 with its one-round joins stubbed; the bag
        over ``distributed`` is priced at −∞ as a round of its own, the
        bag over ``on_server`` as joined on the servers, every other
        variant of a multi-relation bag at ∞. Returns the plan, the final
        round's arguments and the report."""
        import repro.core.adj as adj

        def priced(bag):
            return lambda self, attrs, *_: (
                -math.inf if bag and set(attrs) == set(bag) else math.inf
            )

        monkeypatch.setattr(CostModel, "cost_M", priced(distributed))
        monkeypatch.setattr(CostModel, "cost_S", priced(on_server))
        plans, precomputes, joins = [], [], []
        optimize_ = adj.optimize

        def recorded_optimize(*args, **kwargs):
            plans.append(optimize_(*args, **kwargs))
            return plans[-1]

        def precompute_bags(spark, plan, edges, n_edges, config, mem):
            precomputes.append(plan)
            dfs = {
                f"bag{b.index}": _BagDF(bag_join(plan.query, b)[1])
                for b in plan.precomputed_bags
            }
            # a size far from |R_v|: the final round's shares are the
            # plan's, solved on |R_v|, and must not move with it
            return dfs, {name: 10**9 for name in dfs}

        def one_round_join(spark, relations, schemas, order, shares, **kw):
            joins.append((relations, schemas, order, shares, kw))
            return 7, JoinTimings(result_count=7)

        monkeypatch.setattr(adj, "optimize", recorded_optimize)
        monkeypatch.setattr(adj, "precompute_bags", precompute_bags)
        monkeypatch.setattr(adj, "one_round_join", one_round_join)
        edges = object()
        rep = run_adj(
            None,
            get_query("Q4"),
            edges,
            cfg(),
            cost_model=FAST_CM,
            edges_rows=EDGES[["src", "dst"]].to_numpy(),
        )
        (plan,) = plans
        assert precomputes == [plan]
        ((relations, schemas, order, shares, kw),) = joins
        assert list(schemas) == [name for name, _, _ in plan.relations]
        assert schemas == {name: attrs for name, attrs, _ in plan.relations}
        for name, df in relations.items():
            if name.startswith("bag"):
                assert tuple(df.columns) == schemas[name]
            else:
                assert df is edges
        assert order == plan.order
        assert shares == plan.shares.p == rep.detail["plan"]["shares"]
        assert kw["server_bags"] == plan.server_bags
        assert rep.result_count == 7
        return plan, kw, rep

    @pytest.mark.parametrize("bag", [None, "abe"])
    def test_final_round_runs_the_plan(self, monkeypatch, bag):
        plan, kw, _ = self._run(monkeypatch, distributed=bag)
        assert plan.precompute == ({0} if bag else set())
        assert plan.on_server == set() and kw["server_bags"] == ()

    def test_final_round_runs_bags_on_servers(self, monkeypatch):
        """A bag joined on the servers reaches the final round as its
        local plan: the raw relations it covers, R6 among them, and its
        join order; Q_i keeps those raw relations."""
        plan, kw, rep = self._run(monkeypatch, on_server="abe")
        assert plan.precompute == set() and plan.on_server == {0}
        assert kw["server_bags"] == ((("R1", "R5", "R6"), ("a", "b", "e")),)
        assert not any(n.startswith("bag") for n, _, _ in plan.relations)
        assert rep.detail["plan"]["on_server"] == [0]


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
