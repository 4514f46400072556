"""Synthetic graph datasets: stand-ins for the paper's SNAP/LAW graphs
(§VII-A Table I).

Each real graph is replaced by a deterministic synthetic power-law graph
~1000× smaller (see DESIGN.md §4). Heavy-tailed degree skew is preserved
via a Zipf-weighted configuration model; the relative size ordering
WB < AS < WT < LJ < EN < OK matches the paper. Generators are
deterministic in ``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

#: name -> (|R| edges in the real graph, real size in MB) from Table I.
PAPER_TABLE1 = {
    "WB": (13_200_000, 101.5),
    "AS": (22_100_000, 169.3),
    "WT": (50_900_000, 388.2),
    "LJ": (69_400_000, 529.2),
    "EN": (183_900_000, 1370.0),
    "OK": (234_400_000, 1788.1),
}

#: default down-scale applied to the paper's edge counts.
GRAPH_SCALE = 1e-3

#: per-dataset seeds so every stand-in is distinct yet deterministic.
_GRAPH_SEEDS = {"WB": 11, "AS": 12, "WT": 13, "LJ": 14, "EN": 15, "OK": 16}


def graph_edges_pdf(
    *,
    n_edges: int,
    n_nodes: int | None = None,
    zipf_a: float = 0.6,
    seed: int = 0,
) -> pd.DataFrame:
    """Directed simple power-law graph as a pandas frame ``(src, dst)``.

    Endpoints are drawn independently with probability ∝ rank^-zipf_a
    (a Zipf configuration model): hubs emerge with degree ≈
    ``n_edges · p(1)``, giving the skew that makes cyclic queries
    computationally hard. Self-loops and duplicate edges are dropped, so
    the realized edge count is slightly below ``n_edges``.
    """
    g = np.random.default_rng(seed)
    if n_nodes is None:
        n_nodes = max(8, n_edges // 12)
    ranks = np.arange(1, n_nodes + 1)
    w = 1.0 / ranks**zipf_a
    w /= w.sum()
    src = g.choice(ranks, size=n_edges, p=w)
    dst = g.choice(ranks, size=n_edges, p=w)
    keep = src != dst
    pdf = pd.DataFrame({"src": src[keep], "dst": dst[keep]})
    pdf = pdf.drop_duplicates(ignore_index=True)
    return pdf.astype({"src": "int64", "dst": "int64"})


def dataset_pdf(name: str, *, scale: float = GRAPH_SCALE) -> pd.DataFrame:
    """The stand-in for Table I dataset ``name`` at ``scale`` of the real
    edge count. Deterministic in (name, scale)."""
    try:
        real_edges, _ = PAPER_TABLE1[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; have {sorted(PAPER_TABLE1)}"
        ) from None
    return graph_edges_pdf(
        n_edges=max(8, int(real_edges * scale)), seed=_GRAPH_SEEDS[name]
    )


def dataset_edges(
    spark: SparkSession, name: str, *, scale: float = GRAPH_SCALE
) -> DataFrame:
    """Spark DataFrame ``(src, dst)`` for a Table I stand-in dataset."""
    return spark.createDataFrame(dataset_pdf(name, scale=scale))


def tiny_graph_pdf(*, n_edges: int = 300, n_nodes: int = 40, seed: int = 7) -> pd.DataFrame:
    """A small dense-ish graph for unit tests (triangles guaranteed at
    this density)."""
    return graph_edges_pdf(n_edges=n_edges, n_nodes=n_nodes, zipf_a=0.3, seed=seed)
