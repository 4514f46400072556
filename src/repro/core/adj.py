"""ADJ end-to-end (paper §III): plan → pre-compute → shuffle → join.

``run_adj`` executes a test-case (query, graph) with the co-optimization
strategy and reports the phase breakdown of Tables II–IV:

* **Optimization** — GHD search, sampling-based estimation, Alg. 2.
* **Pre-Computing** — materializing the chosen bags' candidate relations
  with native Catalyst binary joins.
* **Communication** — the one-round HCube shuffle of Q_i's relations.
* **Computation** — the per-server Leapfrog joins.

The per-server memory bound ``M`` is derived once per test-case from the
*original* relations (it models fixed cluster hardware): twice the
tightest achievable per-server packing. Pre-computation grows the
database, so under the same ``M`` the share optimizer may be pushed to a
different ``p`` — the effect the paper observes on (OK, Q6).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.storagelevel import StorageLevel

from repro.core.cost import CostModel, default_cost_model
from repro.core.executor import JoinTimings, one_round_join
from repro.core.optimizer import PlanChoice, optimize
from repro.core.query import JoinQuery
from repro.core.sampling import LocalDB
from repro.hcube.shares import RelSpec, derive_memory, optimize_shares


@dataclass
class ADJConfig:
    """Knobs for one ADJ (or baseline) execution."""

    n_servers: int = 16
    sample_k: int = 200
    seed: int = 0
    mode: str = "pull"  # HCube implementation variant (§V)
    count_only: bool = True
    budget_seconds: float | None = None  # per-server Leapfrog cap
    cache_entries: int = 0  # >0 → CacheTrieJoin-style cache
    beta_source: str = "sampled"  # "sampled" (§III-B) | "model" (constants)


@dataclass
class PhaseReport:
    """One row of Tables II–IV."""

    strategy: str
    query: str
    dataset: str = ""
    optimization: float = 0.0
    pre_computing: float = 0.0
    communication: float = 0.0
    computation: float = 0.0
    timed_out: bool = False
    result_count: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return (
            self.optimization
            + self.pre_computing
            + self.communication
            + self.computation
        )

    def record_join(
        self, joined: tuple[int | DataFrame | None, JoinTimings]
    ) -> None:
        """Fill the Communication and Computation columns from one
        ``one_round_join`` call; a materialized result DataFrame is kept
        in ``detail["result_df"]``."""
        result, t = joined
        self.communication = t.communication
        self.computation = t.computation
        self.result_count = t.result_count
        self.timed_out = t.timed_out
        self.detail["shuffled_tuples"] = t.shuffled_tuples
        if isinstance(result, DataFrame):
            self.detail["result_df"] = result


def relation_dfs(
    edges: DataFrame, query: JoinQuery
) -> dict[str, DataFrame]:
    """One DataFrame per query relation — each a renamed copy of the one
    graph, per the paper's test-case construction (§VII-A)."""
    out = {}
    for r in query.relations:
        if len(r.attrs) != 2:
            raise ValueError(f"graph workload expects binary {r.name}")
        out[r.name] = edges.select(
            edges["src"].alias(r.attrs[0]), edges["dst"].alias(r.attrs[1])
        )
    return out


def local_db(edges_rows: np.ndarray, query: JoinQuery) -> LocalDB:
    """Driver-local relation arrays for the sampler (one shared ndarray)."""
    rows = np.asarray(edges_rows, dtype=np.int64).reshape(-1, 2)
    return {r.name: (r.attrs, rows) for r in query.relations}


def precompute_bags(
    spark: SparkSession,
    plan: PlanChoice,
    rels: Mapping[str, DataFrame],
) -> tuple[dict[str, DataFrame], dict[str, int]]:
    """Materialize each chosen bag's candidate relation with Catalyst
    binary joins; returns the bag DataFrames and their exact sizes."""
    out: dict[str, DataFrame] = {}
    sizes: dict[str, int] = {}
    for bag in plan.precomputed_bags:
        # greedy join order: merge the relation sharing the most columns
        # with the accumulated result first (max filtering — mirrors the
        # optimizer's cost_M estimate of the same pipeline)
        remaining = list(bag.relations)
        df = None
        while remaining:
            if df is None:
                r = remaining.pop(0)
            else:
                r = max(
                    remaining,
                    key=lambda x: len(set(x.attrs) & set(df.columns)),
                )
                remaining.remove(r)
            rdf = rels[r.name]
            if df is None:
                df = rdf
            else:
                shared = [c for c in df.columns if c in rdf.columns]
                df = df.join(rdf, on=shared) if shared else df.crossJoin(rdf)
        assert df is not None
        df = df.select(*bag.attrs).persist(StorageLevel.MEMORY_AND_DISK)
        sizes[f"bag{bag.index}"] = df.count()
        out[f"bag{bag.index}"] = df
    return out, sizes


def run_adj(
    spark: SparkSession,
    query: JoinQuery,
    edges: DataFrame,
    config: ADJConfig | None = None,
    *,
    dataset: str = "",
    cost_model: CostModel | None = None,
    edges_rows: np.ndarray | None = None,
) -> PhaseReport:
    """Execute one test-case with the Co-Optimization strategy."""
    cfg = config or ADJConfig()
    report = PhaseReport("Co-Optimization", query.name, dataset)

    # α/β/γ are cluster constants pre-measured once per session (§VII-A
    # Parameter Setting) — not charged to per-query optimization time.
    cm = cost_model or default_cost_model(spark, n_servers=cfg.n_servers)

    t0 = time.monotonic()
    if edges_rows is None:
        edges_rows = edges.toPandas().to_numpy(dtype=np.int64)
    db = local_db(edges_rows, query)
    raw_specs: list[RelSpec] = [
        (r.attrs, int(edges_rows.shape[0])) for r in query.relations
    ]
    mem = derive_memory(query.attrs, raw_specs, cfg.n_servers)
    cm = replace(cm, n_servers=cfg.n_servers, memory_tuples=mem)
    plan = optimize(
        query,
        db,
        cm,
        sample_k=cfg.sample_k,
        seed=cfg.seed,
        beta_source=cfg.beta_source,
    )
    report.optimization = time.monotonic() - t0
    report.detail["plan"] = {
        "precompute": sorted(plan.precompute),
        "order": plan.order,
        "shares": plan.shares.p,
        "traversal": plan.traversal,
    }

    rels = relation_dfs(edges, query)
    t1 = time.monotonic()
    bag_dfs, bag_sizes = precompute_bags(spark, plan, rels)
    # re-solve shares with exact pre-computed sizes (cheap, still within
    # the pre-computing phase)
    final_specs: list[RelSpec] = []
    final_rels: dict[str, DataFrame] = {}
    schemas: dict[str, tuple[str, ...]] = {}
    for name, attrs in plan.final_relations():
        schemas[name] = attrs
        if name in bag_dfs:
            final_rels[name] = bag_dfs[name]
            final_specs.append((attrs, bag_sizes[name]))
        else:
            final_rels[name] = rels[name]
            final_specs.append((attrs, int(edges_rows.shape[0])))
    shares = optimize_shares(
        query.attrs, final_specs, cfg.n_servers, memory_tuples=mem
    )
    report.pre_computing = time.monotonic() - t1
    report.detail["shares_final"] = shares.p
    report.detail["bag_sizes"] = bag_sizes

    try:
        report.record_join(
            one_round_join(
                spark,
                final_rels,
                schemas,
                plan.order,
                shares.p,
                mode=cfg.mode,
                count_only=cfg.count_only,
                budget_seconds=cfg.budget_seconds,
                cache_entries=cfg.cache_entries,
            )
        )
    finally:
        for df in bag_dfs.values():
            df.unpersist()
    return report
