"""Cross-method result equivalence: ADJ ≡ HCubeJ ≡ SparkSQL ≡ BigJoin
≡ DuckDB oracle on every paper query over a seeded graph.

This is the central correctness gate of the reproduction: four
independently implemented join pipelines (Catalyst binary joins,
multi-round dataflow, one-round comm-first, one-round co-optimized with
pre-computation) must produce identical results.
"""
import duckdb
import pytest

from repro.baselines.bigjoin import bigjoin_count
from repro.baselines.hcubej import run_hcubej
from repro.baselines.sparksql import sparksql_count
from repro.core.adj import ADJConfig, run_adj
from repro.core.cost import CostModel
from repro.core.query import get_query
from repro.synth_data import tiny_graph_pdf

EDGES = tiny_graph_pdf(n_edges=250, n_nodes=30, seed=17)

CM = CostModel(alpha=1e6, beta_pre=1e5, beta_raw=1e3, gamma=1e6, n_servers=4)
CM_PRECOMP = CostModel(
    alpha=1e9, beta_pre=1e9, beta_raw=1e-6, gamma=1e9, n_servers=4
)


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


@pytest.mark.parametrize("qname", ALL)
def test_adj_with_precompute_matches_oracle(spark, qname, oracle_counts):
    q = get_query(qname)
    edges = spark.createDataFrame(EDGES)
    rep = run_adj(
        spark,
        q,
        edges,
        ADJConfig(n_servers=4, sample_k=20),
        cost_model=CM_PRECOMP,
    )
    assert rep.result_count == oracle_counts[qname]


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
