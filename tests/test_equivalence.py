"""Cross-method result equivalence: ADJ ≡ HCubeJ ≡ SparkSQL ≡ BigJoin
≡ DuckDB oracle on every paper query over a seeded graph.

This is the central correctness gate of the reproduction: four
independently implemented join pipelines (Catalyst binary joins,
multi-round dataflow, one-round comm-first, one-round co-optimized with
every bag pre-computed by its own one-round join or joined on each server)
must produce identical results.
"""
import duckdb
import pytest

from repro.baselines.bigjoin import bigjoin_count
from repro.baselines.hcubej import run_hcubej
from repro.baselines.sparksql import sparksql_count
from repro.core.adj import ADJConfig, run_adj
from repro.core.cost import CostModel
from repro.core.query import get_query
from repro.oracle import assert_equivalent
from repro.synth_data import tiny_graph_pdf

EDGES = tiny_graph_pdf(n_edges=250, n_nodes=30, seed=17)

CM = CostModel(alpha=1e6, beta_pre=1e5, beta_raw=1e3, gamma=0.5, n_servers=4)


@pytest.fixture(scope="module")
def oracle_counts():
    con = duckdb.connect()
    try:
        con.register("e", EDGES)
        return {
            name: con.execute(
                f"SELECT count(*) FROM ({get_query(name).to_sql()})"
            ).fetchone()[0]
            for name in ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"]
        }
    finally:
        con.close()


ALL = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]


@pytest.mark.parametrize("qname", ALL)
def test_adj_matches_oracle(spark, qname, oracle_counts):
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    rep = run_adj(
        spark,
        q,
        edges,
        ADJConfig(n_servers=4, sample_k=20),
        cost_model=CM,
    )
    assert rep.result_count == oracle_counts[qname]


@pytest.mark.parametrize("qname", ALL + ["Q7", "Q8"])
def test_adj_with_precompute_matches_oracle(
    spark, qname, oracle_counts, forced_precompute
):
    """Every bag that can be pre-computed is: the one-round bag joins and
    the final join, which reads every bag, together count what DuckDB
    counts, and each bag's size is the plan's exact |R_v|."""
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    rep = run_adj(
        spark,
        q,
        edges,
        ADJConfig(n_servers=4, sample_k=20),
        cost_model=CM,
    )
    assert rep.result_count == oracle_counts[qname]
    forced_precompute.check_last_run()
    (plan,) = forced_precompute.plans
    assert sorted(plan.precompute) == rep.detail["plan"]["precompute"]
    assert rep.detail["bag_sizes"] == {
        name: n for name, _, n in plan.relations if name.startswith("bag")
    }


@pytest.mark.parametrize("qname", ALL + ["Q7", "Q8"])
def test_adj_with_precompute_emits_oracle_rows(
    spark, qname, forced_precompute
):
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    rep = run_adj(
        spark,
        q,
        edges,
        ADJConfig(n_servers=4, sample_k=20, count_only=False),
        cost_model=CM,
    )
    forced_precompute.check_last_run()
    assert_equivalent(
        rep.detail["result_df"].select(*q.attrs), q.to_sql(), e=EDGES
    )


@pytest.mark.parametrize("mode", ["pull", "push"])
@pytest.mark.parametrize("qname", ALL + ["Q7", "Q8"])
def test_adj_with_bags_on_servers_matches_oracle(
    spark, qname, mode, oracle_counts, forced_on_server
):
    """Every bag that can be pre-computed is joined on each server from
    the tuples the final round sent it: counts equal DuckDB's, and the
    final round shuffled only raw relations."""
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    rep = run_adj(
        spark,
        q,
        edges,
        ADJConfig(n_servers=4, sample_k=20, mode=mode),
        cost_model=CM,
    )
    assert rep.result_count == oracle_counts[qname]
    forced_on_server.check_last_run()
    (plan,) = forced_on_server.plans
    assert sorted(plan.on_server) == rep.detail["plan"]["on_server"]
    assert rep.detail["bag_sizes"] == {}


@pytest.mark.parametrize("mode", ["pull", "push"])
@pytest.mark.parametrize("qname", ALL + ["Q7", "Q8"])
def test_adj_with_bags_on_servers_emits_oracle_rows(
    spark, qname, mode, forced_on_server
):
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    rep = run_adj(
        spark,
        q,
        edges,
        ADJConfig(n_servers=4, sample_k=20, count_only=False, mode=mode),
        cost_model=CM,
    )
    forced_on_server.check_last_run()
    assert_equivalent(
        rep.detail["result_df"].select(*q.attrs), q.to_sql(), e=EDGES
    )
    rep.detail["result_df"].unpersist()


@pytest.mark.parametrize("qname", ALL)
def test_hcubej_matches_oracle(spark, qname, oracle_counts):
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    rep = run_hcubej(spark, q, edges, ADJConfig(n_servers=4))
    assert rep.result_count == oracle_counts[qname]


@pytest.mark.parametrize("qname", ALL)
def test_hcubej_cache_matches_oracle(spark, qname, oracle_counts):
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    rep = run_hcubej(
        spark, q, edges, ADJConfig(n_servers=4, cache_entries=50_000)
    )
    assert rep.result_count == oracle_counts[qname]


@pytest.mark.parametrize("qname", ["Q1", "Q2", "Q4", "Q5", "Q6"])
def test_sparksql_matches_oracle(spark, qname, oracle_counts):
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    assert sparksql_count(spark, q, edges) == oracle_counts[qname]


@pytest.mark.parametrize("qname", ["Q1", "Q2", "Q4"])
def test_bigjoin_matches_oracle(spark, qname, oracle_counts):
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    assert bigjoin_count(spark, q, edges) == oracle_counts[qname]
