"""HCubeJ — the communication-first one-round baseline (paper [11]).

Strategy: optimize only the HCube share vector ``p`` for minimum
communication (under the same per-server memory bound as ADJ), pick the
Leapfrog attribute order from *all* n! orders with the lightweight
statistics heuristic of [11] ("All-Selected" in Fig. 8), and run the
one-round join with **no pre-computation**. ``cache_entries > 0`` turns
it into HCubeJ+Cache [28] (Leapfrog with the bounded intersection
cache); the cache capacity models the paper's observation that HCube's
memory appetite leaves little room for caching.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.core.adj import ADJConfig, PhaseReport
from repro.core.executor import one_round_join
from repro.core.query import JoinQuery
from repro.hcube.shares import RelSpec, derive_memory, optimize_shares


def heuristic_order(query: JoinQuery) -> tuple[str, ...]:
    """The [11]-style order over all attributes: start at the attribute in
    the most relations, then greedily append the attribute most connected
    to the bound set (ties: higher degree, then name). Deliberately *not*
    restricted to hypertree-valid orders — that restriction is ADJ's
    contribution (§III-A)."""
    deg = {
        a: sum(1 for r in query.relations if a in r.attr_set)
        for a in query.attrs
    }
    order = [max(query.attrs, key=lambda a: (deg[a], a))]
    remaining = [a for a in query.attrs if a != order[0]]
    while remaining:
        def bound_links(a: str) -> int:
            return sum(
                1
                for r in query.relations
                if a in r.attr_set and any(b in r.attr_set for b in order)
            )

        nxt = max(remaining, key=lambda a: (bound_links(a), deg[a], a))
        order.append(nxt)
        remaining.remove(nxt)
    return tuple(order)


def run_hcubej(
    spark: SparkSession,
    query: JoinQuery,
    edges: DataFrame,
    config: ADJConfig | None = None,
    *,
    dataset: str = "",
    edges_rows: np.ndarray | None = None,
) -> PhaseReport:
    """Execute one test-case with the Communication-First strategy.

    ``edges`` is ``(src, dst)``; every relation reads it by position.
    Only the edge count is read from ``edges_rows`` (the edges already on
    the driver); without it the count is one Spark action."""
    cfg = config or ADJConfig()
    name = "HCubeJ+Cache" if cfg.cache_entries else "Communication-First"
    report = PhaseReport(name, query.name, dataset)

    t0 = time.monotonic()
    n_edges = edges.count() if edges_rows is None else len(edges_rows)
    specs: list[RelSpec] = [(r.attrs, n_edges) for r in query.relations]
    mem = derive_memory(query.attrs, specs, cfg.n_servers)
    shares = optimize_shares(
        query.attrs, specs, cfg.n_servers, memory_tuples=mem
    )
    order = heuristic_order(query)
    report.optimization = time.monotonic() - t0
    report.detail["plan"] = {"order": order, "shares": shares.p}

    report.record_join(
        one_round_join(
            spark,
            {r.name: edges for r in query.relations},
            {r.name: r.attrs for r in query.relations},
            order,
            shares.p,
            mode=cfg.mode,
            count_only=cfg.count_only,
            budget_seconds=cfg.budget_seconds,
            cache_entries=cfg.cache_entries,
        )
    )
    return report
