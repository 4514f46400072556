"""Cost model and calibration (paper §III-B, "Computing the Cost").

Three unit rates and one fixed cost are calibrated by micro-measurement,
as the paper prescribes:

* ``α``  — tuples shuffled per second: time a small real repartition.
* ``β_pre`` — partial-binding extensions per second when the extended
  node is a pre-computed bag: time a batch of random queries against a
  trie ("querying the trie for candidate values"), probed as the
  Leapfrog kernel probes it.
* ``β_raw`` — extensions per second when the node is *not* pre-computed
  and Leapfrog intersects several candidate lists: time a count-only
  Leapfrog triangle on a fixed random graph. Both β are timed on the
  one kernel the executor and the sampler run, so the optimizer prices
  both plan variants on one scale and reads no clock itself.
* ``γ``  — seconds: the fixed wall time of one more one-round join, the
  engine that materializes pre-computed bags; time a tiny emit-mode
  ``one_round_join``.

Costs returned are in seconds:

* ``cost_C(C)``  = Σ |R|·dup(R, p*) / α with ``p*`` from the share
  optimizer (Eq. (3)).
* ``cost_E^i``   = |T^{v_{i−1}}| / (β_i · N*).
* ``cost_M(v)``  = γ + ``cost_C`` of the relations the bag covers + its
  Leapfrog's W_v extensions / (β_raw · N): a bag pre-computed by a
  distributed round of its own.
* ``cost_S(v)``  = W_v / (∏_{A∈v} p_A · β_raw): a bag joined on each
  server from the raw tuples it received in the final round. A server
  joins only the part of the bag that matches its coordinates, so the
  bag's shares divide its work; shares outside the bag replicate it.
  No γ and no shuffle: the raw relations' ``cost_C`` is paid anyway.
  Its seconds are part of the Computation column, and each server
  reports them as ``ServerRecord.bag_s``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.executor import one_round_join
from repro.hcube.shares import RelSpec, Shares, optimize_shares
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import Trie, trie_for_order


@dataclass(frozen=True)
class CostModel:
    """Calibrated unit rates plus cluster parameters."""

    alpha: float  # tuples shuffled / second
    beta_pre: float  # extensions / second into a pre-computed bag
    beta_raw: float  # extensions / second into raw relations
    gamma: float  # seconds: fixed wall time of one more one-round join
    n_servers: int = 16
    memory_tuples: float | None = None

    # -- paper cost terms --------------------------------------------------
    def cost_C(
        self, attrs: Sequence[str], relations: Sequence[RelSpec]
    ) -> tuple[float, Shares]:
        """Communication seconds for shuffling ``relations`` under the
        optimal share vector, and that vector."""
        sh = optimize_shares(
            attrs, relations, self.n_servers, self.memory_tuples
        )
        return sh.comm / self.alpha, sh

    def cost_E(self, prefix_bindings: float, precomputed: bool) -> float:
        """Seconds to extend ``prefix_bindings`` partial bindings through
        the i-th traversed node."""
        beta = self.beta_pre if precomputed else self.beta_raw
        return prefix_bindings / (beta * self.n_servers)

    def cost_M(
        self, attrs: Sequence[str], covered: Sequence[RelSpec], work: float
    ) -> float:
        """Pre-computing seconds for one bag over ``attrs``: one more
        one-round join (γ), the shuffle of the ``covered`` relations, and
        its Leapfrog over ``work`` extensions (W_v) at ``β_raw``."""
        comm, _ = self.cost_C(attrs, covered)
        return self.gamma + comm + work / (self.beta_raw * self.n_servers)

    def cost_S(
        self, attrs: Sequence[str], shares: Shares, work: float
    ) -> float:
        """Seconds each server spends joining its part of a bag over
        ``attrs`` from the tuples it received under ``shares``: the bag's
        ``work`` extensions (W_v) split over its attributes' shares, at
        ``β_raw``."""
        cells = math.prod(shares.p.get(a, 1) for a in attrs)
        return work / (cells * self.beta_raw)


# ---------------------------------------------------------------------------
# Calibration (cached per SparkSession)
# ---------------------------------------------------------------------------

_CAL_CACHE: dict[int, dict[str, float]] = {}


def calibrate_alpha(spark: SparkSession, k: int = 200_000) -> float:
    """Measure α by timing a k-tuple repartition (a real exchange)."""
    cache = _CAL_CACHE.setdefault(id(spark), {})
    if "alpha" not in cache:
        df = spark.range(k).withColumn(
            "key", (F.col("id") * 2654435761) % 4096
        )
        df.count()  # warm the path so α excludes job-startup noise
        t0 = time.monotonic()
        df.repartition(32, "key").count()
        cache["alpha"] = k / max(time.monotonic() - t0, 1e-9)
    return cache["alpha"]


def calibrate_gamma(spark: SparkSession, n: int = 2_000) -> float:
    """Measure γ, in seconds: the wall time of an emit-mode triangle
    ``one_round_join`` over an n-edge graph on 4 servers, so small that
    the round's fixed cost is all it measures."""
    cache = _CAL_CACHE.setdefault(id(spark), {})
    if "gamma" not in cache:
        edges = spark.range(n).select(
            (F.col("id") % 97).alias("src"),
            (F.col("id") * 7 % 89).alias("dst"),
        )
        tri = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "c")}
        for _ in range(2):  # the first call warms the path
            t0 = time.monotonic()
            df = one_round_join(
                spark, dict.fromkeys(tri, edges), tri, "abc", {"a": 2, "b": 2},
                count_only=False,
            )[0]
            df.unpersist()
        cache["gamma"] = time.monotonic() - t0
    return cache["gamma"]


def calibrate_beta_pre(
    size: int = 100_000, queries: int = 20_000, seed: int = 0
) -> float:
    """Measure β for pre-computed bags: random candidate-range queries
    against a trie of ``size`` rows, looked up as one batch the way the
    Leapfrog kernel probes a level (:meth:`Trie.find`, then the child
    ranges). The fastest of a few repeats is kept."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, size, size=(size, 2), dtype=np.int64)
    trie = Trie(rows, ("x", "y"))
    keys = rng.choice(trie.values[0], size=queries)
    lo, hi = trie.root_range()
    best = float("inf")
    for _ in range(5):
        t0 = time.monotonic()
        node = trie.find(0, lo, hi, keys)
        _ = trie.child_start[0][node], trie.child_end[0][node]
        best = min(best, time.monotonic() - t0)
    return queries / max(best, 1e-9)


def calibrate_beta_raw() -> float:
    """Measure β for raw (not pre-computed) nodes: a count-only Leapfrog
    triangle ``R(a,b) ⋈ S(b,c) ⋈ T(a,c)`` on a fixed seeded random graph
    (2,000 nodes, 20,000 edges), every level an intersection of candidate
    lists. Returns extensions (Σ|T^i|) per second; the fastest of a few
    repeats is kept."""
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 2_000, size=(20_000, 2), dtype=np.int64)
    order = ("a", "b", "c")
    tries = [
        trie_for_order(rows, attrs, order)
        for attrs in (("a", "b"), ("b", "c"), ("a", "c"))
    ]
    best, extensions = float("inf"), 0
    for _ in range(3):
        t0 = time.monotonic()
        extensions = leapfrog(tries, order, emit=False).extensions
        best = min(best, time.monotonic() - t0)
    return extensions / max(best, 1e-9)


def default_cost_model(
    spark: SparkSession,
    *,
    n_servers: int = 16,
) -> CostModel:
    """Fully calibrated cost model for this session."""
    return CostModel(
        alpha=calibrate_alpha(spark),
        beta_pre=calibrate_beta_pre(),
        beta_raw=calibrate_beta_raw(),
        gamma=calibrate_gamma(spark),
        n_servers=n_servers,
    )
