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

The whole round is one Spark job with no persisted intermediate: the
per-server stage runs straight on the shuffle and is the round's last
stage; in count mode the driver sums the servers' ``cnt`` rows, so
no aggregate stage follows it. Each server adds one
``ServerRecord`` (the instant it got its tuples, how many it got, its
trie-build, bag and Leapfrog seconds) to an accumulator keyed by server, and
the two phases of Tables II–IV are split at the earliest server start:
Communication runs from the call's start to that instant, Computation
from it to the job's end. The clocks of the driver and the workers must
therefore agree, as they do on one machine. The round has one
wall-clock deadline, ``budget_seconds`` after the call starts, shared by
every server; passing it is a returned state, not a failed Spark job.

A local plan, ``server_bags``, lets each server join a bag of the query
from the raw tuples it received before the final Leapfrog
(:func:`server_join`): HCube sends a server every tuple of a relation
that matches its coordinates, so its part of the bag needs no other
server's data. The bag's trie then stands in for the relations it
covers, and a last level with the bag as its one participant is summed
from trie ranges (paper §III). The bags' seconds are part of
Computation, and each server reports them in ``ServerRecord.bag_s``.

The per-server worker first drops the zip importers from
``sys.path_importer_cache`` (:func:`_drop_zip_importers`): PySpark calls
``importlib.invalidate_caches()`` on every task, which under Python 3.11
makes each cached ``zipimporter`` re-read its archive, and the round's
fixed cost would otherwise carry those reads on every task.
"""
from __future__ import annotations

import sys
import time
import zipimport
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import pandas as pd
from pyspark.accumulators import Accumulator, AccumulatorParam
from pyspark.sql import DataFrame, SparkSession
from pyspark.storagelevel import StorageLevel

from repro.hcube.shuffle import hcube_shuffle, order_aligned_attrs
from repro.leapfrog.cache import IntersectionCache
from repro.leapfrog.leapfrog import LFResult, leapfrog
from repro.leapfrog.trie import Trie, trie_for_order

#: a bag joined on each server: the relations it covers, and the
#: attribute order they are joined in (``PlanChoice.server_bags``)
ServerBag = tuple[tuple[str, ...], tuple[str, ...]]


class ServerRecord(NamedTuple):
    """What one server reports of its part of the round."""

    start: float  # ``time.time()`` instant its worker got its tuples
    tuples: int  # tuples received, over every relation
    build_s: float  # block decode and trie builds
    join_s: float  # Leapfrog
    bag_s: float  # bag joins and bag tries (``server_bags``)


class _Records(AccumulatorParam):
    """A ``{server: ServerRecord}`` dict merged by overwriting, so a
    retried task replaces its server's record instead of adding to it."""

    def zero(self, value: dict) -> dict:
        return {}

    def addInPlace(self, value1: dict, value2: dict) -> dict:
        value1.update(value2)
        return value1


@dataclass
class JoinTimings:
    """Phase timings of one one-round join execution."""

    communication: float = 0.0
    computation: float = 0.0
    shuffled_tuples: int = 0
    result_count: int | None = None
    timed_out: bool = False
    servers: dict[int, ServerRecord] = field(default_factory=dict)

    @property
    def straggler_ratio(self) -> float:
        """Max over mean of the servers' Leapfrog seconds (0 if none)."""
        join_s = [r.join_s for r in self.servers.values()]
        mean = sum(join_s) / len(join_s) if join_s else 0.0
        return max(join_s) / mean if mean else 0.0


def _drop_zip_importers() -> None:
    """Drop every ``zipimporter`` from ``sys.path_importer_cache``.

    PySpark's worker calls ``importlib.invalidate_caches()`` at the start
    of every task, and under Python 3.11 ``zipimporter.invalidate_caches``
    re-reads its archive's directory: with ``pyspark.zip`` and the Spark
    core jar on the path that is 16 archive reads, 175–435 ms per task on
    a 4-core VM. The entries are caches only: an import that needs one
    again rebuilds it from ``zipimport``'s directory cache without
    reading the archive, so the next task on this worker invalidates
    nothing costly.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def server_join(
    rows: Mapping[str, np.ndarray],
    schemas: Mapping[str, tuple[str, ...]],
    order: tuple[str, ...],
    server_bags: Sequence[ServerBag] = (),
    *,
    emit: bool = False,
    deadline: float | None = None,
    cache: IntersectionCache | None = None,
) -> tuple[LFResult, float, float, float]:
    """The join one server runs on the tuples it received.

    ``rows[rel]`` holds relation ``rel``'s tuples with their columns in
    trie order (:func:`order_aligned_attrs`), as the shuffle's blocks
    arrive. Each bag of ``server_bags`` is first joined by emit-mode
    Leapfrog from the relations it covers, their columns permuted to the
    bag's order, and its rows become a trie over their order-aligned
    attributes; the final Leapfrog runs over ``order`` with the bags'
    tries in place of the relations they cover. ``deadline`` is a
    ``time.monotonic()`` instant that stops every Leapfrog run.

    Returns the final Leapfrog's result and the seconds of the raw trie
    builds, of the bags (joins and tries), and of the final Leapfrog.
    """
    t0 = time.monotonic()
    aligned = {
        rel: order_aligned_attrs(attrs, order)
        for rel, attrs in schemas.items()
    }
    covered = {rel for rels, _ in server_bags for rel in rels}
    tries = [
        Trie(rows[rel], attrs)
        for rel, attrs in aligned.items()
        if rel not in covered
    ]
    t1 = time.monotonic()
    for rels, bag_order in server_bags:
        bag = leapfrog(
            [
                trie_for_order(rows[rel], aligned[rel], bag_order)
                for rel in rels
            ],
            bag_order,
            deadline=deadline,
        )
        tries.append(trie_for_order(bag.rows, bag_order, order))
    t2 = time.monotonic()
    res = leapfrog(tries, order, emit=emit, deadline=deadline, cache=cache)
    return res, t1 - t0, t2 - t1, time.monotonic() - t2


def _make_worker(
    schemas: dict[str, tuple[str, ...]],
    order: tuple[str, ...],
    count_only: bool,
    deadline: float | None,
    cache_entries: int,
    records: Accumulator,
    server_bags: tuple[ServerBag, ...] = (),
):
    """Build the per-server join function for ``applyInPandas``.

    ``deadline`` is the round's one ``time.time()`` instant, shared by
    every server; a server that passes it returns what it has counted so
    far. Each server adds its ``ServerRecord`` to ``records``. The closure
    captures only plain Python data (schemas, order, local plan, knobs)
    and the accumulator, so it pickles cleanly to executors.
    """

    def worker(pdf: pd.DataFrame) -> pd.DataFrame:
        start = time.time()
        _drop_zip_importers()
        t0 = time.monotonic()
        stop = None if deadline is None else t0 + (deadline - start)
        # a relation the server received nothing of stays an empty trie
        parts = {
            rel: [np.empty((0, len(attrs)), dtype=np.int64)]
            for rel, attrs in schemas.items()
        }
        for rel, blocks in pdf.groupby("rel")["block"]:
            k = len(schemas[rel])
            parts[rel] += [
                np.asarray(block, dtype=np.int64).reshape(-1, k)
                for block in blocks
            ]
        rows = {rel: np.concatenate(p) for rel, p in parts.items()}
        decode_s = time.monotonic() - t0
        cache = IntersectionCache(cache_entries) if cache_entries else None
        res, build_s, bag_s, join_s = server_join(
            rows, schemas, order, server_bags,
            emit=not count_only, deadline=stop, cache=cache,
        )
        tuples = sum(len(r) for r in rows.values())
        rec = ServerRecord(start, tuples, decode_s + build_s, join_s, bag_s)
        records.add({int(pdf["server"].iloc[0]): rec})
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
    server_bags: Sequence[ServerBag] = (),
) -> tuple[int | DataFrame | None, JoinTimings]:
    """Execute the one-round join; returns result (count or DataFrame of
    tuples over ``order``) plus phase timings.

    ``relations`` is read by position, one scan per distinct DataFrame,
    as ``hcube_shuffle`` reads it. ``server_bags`` is the local plan:
    the bags every server joins from its own tuples (:func:`server_join`).

    A budget overrun is a result state, not an exception: the round has
    one wall-clock deadline, ``budget_seconds`` after the call starts, at
    which every server stops its Leapfrog. A call whose wall time exceeds
    the budget returns ``None`` with ``timings.timed_out`` set — this
    reproduces the paper's "> 43200 s" timeout cells at laptop scale.
    """
    order = tuple(order)
    schemas = {k: tuple(v) for k, v in schemas.items()}
    timings = JoinTimings()

    submitted = time.time()
    deadline = None if budget_seconds is None else submitted + budget_seconds
    records = spark.sparkContext.accumulator({}, _Records())
    shuffled = hcube_shuffle(relations, schemas, order, shares, mode=mode)
    out_schema = (
        "cnt long" if count_only else ", ".join(f"{a} long" for a in order)
    )
    joined = shuffled.groupBy("server").applyInPandas(
        _make_worker(
            schemas, order, count_only, deadline, cache_entries, records,
            tuple(server_bags),
        ),
        schema=out_schema,
    )
    result: int | DataFrame | None
    if count_only:
        # one row per server, summed here: no aggregate stage after the
        # per-server one
        result = sum(row.cnt for row in joined.collect())
        timings.result_count = result
    else:
        result = joined.persist(StorageLevel.MEMORY_AND_DISK)
        timings.result_count = result.count()
    end = time.time()

    timings.servers = dict(records.value)
    start = min((r.start for r in timings.servers.values()), default=end)
    timings.communication = start - submitted
    timings.computation = end - start
    timings.shuffled_tuples = sum(r.tuples for r in timings.servers.values())
    # the paper's cap is wall-clock on the whole run; a server that
    # stopped at the deadline makes the round overrun too, so its partial
    # count is never returned as a result
    timings.timed_out = (
        budget_seconds is not None and end - submitted > budget_seconds
    )
    if timings.timed_out:
        joined.unpersist()
        result = timings.result_count = None
    return result, timings
