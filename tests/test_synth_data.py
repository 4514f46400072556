"""Tests for the synthetic graph dataset generators."""
import numpy as np
import pytest

from repro.synth_data import (
    GRAPH_SCALE,
    PAPER_TABLE1,
    dataset_pdf,
    graph_edges_pdf,
    tiny_graph_pdf,
)


class TestGraphGenerator:
    def test_deterministic(self):
        a = graph_edges_pdf(n_edges=1000, seed=5)
        b = graph_edges_pdf(n_edges=1000, seed=5)
        assert a.equals(b)

    def test_seed_changes_graph(self):
        a = graph_edges_pdf(n_edges=1000, seed=5)
        b = graph_edges_pdf(n_edges=1000, seed=6)
        assert not a.equals(b)

    def test_no_self_loops_no_dups(self):
        g = graph_edges_pdf(n_edges=2000, seed=1)
        assert (g["src"] != g["dst"]).all()
        assert not g.duplicated().any()

    def test_heavy_tail(self):
        """Degree skew: the max degree is far above the mean (hubs exist)."""
        g = graph_edges_pdf(n_edges=20000, seed=2)
        deg = g.groupby("src").size()
        assert deg.max() > 10 * deg.mean()

    def test_dtypes(self):
        g = graph_edges_pdf(n_edges=100, seed=0)
        assert g["src"].dtype == np.int64
        assert g["dst"].dtype == np.int64


class TestDatasets:
    def test_registry_complete(self):
        assert sorted(PAPER_TABLE1) == ["AS", "EN", "LJ", "OK", "WB", "WT"]

    def test_relative_ordering_preserved(self):
        """Stand-in sizes follow the paper's WB < AS < WT < LJ < EN < OK."""
        sizes = {
            n: len(dataset_pdf(n, scale=1e-4)) for n in PAPER_TABLE1
        }
        assert (
            sizes["WB"] < sizes["AS"] < sizes["WT"]
            < sizes["LJ"] < sizes["EN"] < sizes["OK"]
        )

    def test_scaled_edge_count_near_target(self):
        # realized edges are slightly below the target (dedup/self-loops)
        pdf = dataset_pdf("WB", scale=1e-4)
        target = PAPER_TABLE1["WB"][0] * 1e-4
        assert 0.7 * target <= len(pdf) <= target

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset_pdf("XX")

    def test_default_scale_is_1e3(self):
        assert GRAPH_SCALE == pytest.approx(1e-3)

    def test_datasets_deterministic_and_distinct(self):
        a1 = dataset_pdf("AS", scale=1e-4)
        a2 = dataset_pdf("AS", scale=1e-4)
        lj = dataset_pdf("LJ", scale=1e-4)
        assert a1.equals(a2)
        assert not a1.head(50).equals(lj.head(50))

    def test_tiny_graph_has_triangles(self):
        import duckdb

        g = tiny_graph_pdf()
        con = duckdb.connect()
        try:
            con.register("e", g)
            n = con.execute(
                "SELECT count(*) FROM e r0 JOIN e r1 ON r1.src=r0.dst "
                "JOIN e r2 ON r2.src=r0.src AND r2.dst=r1.dst"
            ).fetchone()[0]
        finally:
            con.close()
        assert n > 0

