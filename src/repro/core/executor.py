"""One-round multiway join executor: HCube shuffle + per-server Leapfrog.

This is the physical operator shared by ADJ and the HCubeJ baselines
(paper §II-A): relations are shuffled once by HCube, then each server
runs the sequential Leapfrog join on the data it received, with no
further data exchange. The shuffle places server ``s`` on Spark
partition ``s mod P`` with ``P = min(n_servers, task slots)``, so one
task runs the servers of its partition one after another. The per-server
join is a ``groupBy("server").applyInPandas`` stage — the sanctioned
PySpark stand-in for a JVM physical operator (see DESIGN.md §2) — that
reuses the shuffle's partitioning: its plan adds a local sort, not a
second exchange.

The two phases are timed separately (the Communication / Computation
columns of Tables II–IV): the shuffle result is persisted and one job
both materializes it and sums the shuffled tuples, then the local joins
run over the persisted blocks. The Computation phase has one wall-clock
deadline shared by every server; passing it is a returned state, not a
failed Spark job.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.storagelevel import StorageLevel

from repro.hcube.shuffle import hcube_shuffle, order_aligned_attrs
from repro.leapfrog.cache import IntersectionCache
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import Trie


@dataclass
class JoinTimings:
    """Phase timings of one one-round join execution."""

    communication: float = 0.0
    computation: float = 0.0
    shuffled_tuples: int = 0
    result_count: int | None = None
    timed_out: bool = False


def _make_worker(
    schemas: dict[str, tuple[str, ...]],
    order: tuple[str, ...],
    count_only: bool,
    deadline: float | None,
    cache_entries: int,
):
    """Build the per-server join function for ``applyInPandas``.

    ``deadline`` is the Computation phase's one ``time.time()`` instant,
    shared by every server; a server that passes it returns what it has
    counted so far. The closure captures only plain Python data
    (schemas, order, knobs), so it pickles cleanly to executors.
    """

    def worker(pdf: pd.DataFrame) -> pd.DataFrame:
        stop = (
            None if deadline is None
            else time.monotonic() + (deadline - time.time())
        )
        # a relation the server received nothing of stays an empty trie
        rows = {
            rel: [np.empty((0, len(attrs)), dtype=np.int64)]
            for rel, attrs in schemas.items()
        }
        for rel, blocks in pdf.groupby("rel")["block"]:
            k = len(schemas[rel])
            rows[rel] += [
                np.asarray(block, dtype=np.int64).reshape(-1, k)
                for block in blocks
            ]
        tries = [
            Trie(np.concatenate(rows[rel]), order_aligned_attrs(attrs, order))
            for rel, attrs in schemas.items()
        ]
        cache = IntersectionCache(cache_entries) if cache_entries else None
        res = leapfrog(
            tries, order, emit=not count_only, deadline=stop, cache=cache
        )
        if count_only:
            return pd.DataFrame({"cnt": pd.Series([res.count], dtype="int64")})
        return pd.DataFrame(res.rows, columns=list(order))

    return worker


def one_round_join(
    spark: SparkSession,
    relations: Mapping[str, DataFrame],
    schemas: Mapping[str, Sequence[str]],
    order: Sequence[str],
    shares: Mapping[str, int],
    *,
    mode: str = "pull",
    count_only: bool = True,
    budget_seconds: float | None = None,
    cache_entries: int = 0,
) -> tuple[int | DataFrame | None, JoinTimings]:
    """Execute the one-round join; returns result (count or DataFrame of
    tuples over ``order``) plus phase timings.

    A budget overrun is a result state, not an exception: the Computation
    phase has one wall-clock deadline, ``budget_seconds`` after it starts,
    at which every server stops its Leapfrog. A phase that takes longer
    than the budget returns ``None`` with ``timings.timed_out`` set — this
    reproduces the paper's "> 43200 s" timeout cells at laptop scale.
    """
    order = tuple(order)
    schemas = {k: tuple(v) for k, v in schemas.items()}
    timings = JoinTimings()

    t0 = time.monotonic()
    shuffled = hcube_shuffle(relations, schemas, order, shares, mode=mode)
    shuffled = shuffled.persist(StorageLevel.MEMORY_AND_DISK)
    try:
        # one job materializes the exchange and counts what it moved
        arity = " ".join(
            f"WHEN '{rel}' THEN {len(attrs)}" for rel, attrs in schemas.items()
        )
        tuples = F.expr(f"sum(size(block) div CASE rel {arity} END)")
        timings.shuffled_tuples = int(shuffled.agg(tuples).first()[0] or 0)
        timings.communication = time.monotonic() - t0

        out_schema = (
            "cnt long"
            if count_only
            else ", ".join(f"{a} long" for a in order)
        )
        t1 = time.monotonic()
        deadline = (
            None if budget_seconds is None else time.time() + budget_seconds
        )
        joined = shuffled.groupBy("server").applyInPandas(
            _make_worker(schemas, order, count_only, deadline, cache_entries),
            schema=out_schema,
        )
        result: int | DataFrame | None
        if count_only:
            result = int(joined.agg(F.sum("cnt")).collect()[0][0] or 0)
            timings.result_count = result
        else:
            result = joined.persist(StorageLevel.MEMORY_AND_DISK)
            timings.result_count = result.count()
        timings.computation = time.monotonic() - t1
        # the paper's cap is wall-clock on the whole phase; a server that
        # stopped at the deadline makes the phase overrun too, so its
        # partial count is never returned as a result
        timings.timed_out = (
            budget_seconds is not None and timings.computation > budget_seconds
        )
        if timings.timed_out:
            joined.unpersist()
            result = timings.result_count = None
        return result, timings
    finally:
        shuffled.unpersist()
