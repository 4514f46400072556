"""Cardinality estimation via sampling (paper §IV).

``|T| = |val(A)| · mean(|T_{A=a}|)`` over uniformly sampled ``a`` from
``val(A) = ∩_{R ∋ A} Π_A R``. The per-value counts of one estimate come
from a single Leapfrog run with every sampled value pinned at level 0:
the kernel extends all of them as one batch and returns one count per
value. Chernoff–Hoeffding (Lemma 2) gives ``k(p, δ)``.

Two implementations share the estimator:

* :func:`estimate_cardinality_spark` — the paper's *distributed* pipeline:
  projections and their intersection, sampling of ``val(A)``, and the
  semi-join reduction of the database all run as DataFrame operations;
  the reduced database is broadcast and the per-sample Leapfrog counts
  are evaluated in parallel over the cluster.
* :func:`estimate_cardinality_local` — the same estimator on
  driver-local numpy relations; the Alg. 2 optimizer issues many prefix
  sub-query estimates and uses this fast path.

Both also report the observed extension rate (extensions/second), which
calibrates ``β`` for non-pre-computed bags (§III-B, "reusing statistics
gathered during sampling").
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Sequence

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.hcube.shuffle import order_aligned_attrs
from repro.leapfrog.leapfrog import LeapfrogTimeout, leapfrog
from repro.leapfrog.trie import trie_for_order

# name -> (attrs, rows ndarray of shape (n, len(attrs)))
LocalDB = dict[str, tuple[tuple[str, ...], np.ndarray]]


@dataclass
class CardinalityEstimate:
    """Result of one sampling run."""

    estimate: float
    val_count: int  # |val(A)|
    k: int  # samples actually used
    mean_x: float  # mean |T_{A=a}|
    extensions: int  # total Leapfrog extensions during sampling
    elapsed: float
    attr: str
    max_x: float = 0.0  # largest sampled |T_{A=a}| (skew indicator)
    count_elapsed: float = 0.0  # pure counting time (excludes trie builds)

    @property
    def extension_rate(self) -> float:
        """Extensions per second — the β statistic of §III-B. Based on the
        pure counting time so small samples are not biased by the one-off
        trie construction."""
        t = self.count_elapsed if self.count_elapsed > 0 else self.elapsed
        return self.extensions / t if t > 0 else float("inf")

    @property
    def seconds_per_value(self) -> float:
        """Mean counting time per sampled value — scaled by |val(A)| this
        predicts the whole-query sequential computation time."""
        return self.count_elapsed / self.k if self.k else 0.0

    @property
    def hub_share(self) -> float:
        """Fraction of sampled work concentrated on the heaviest value —
        a straggler indicator (the paper observes the 'last straggler'
        effect on skewed queries, §VII-B Scalability)."""
        total = self.k * self.mean_x
        return (self.max_x / total) if total > 0 else 0.0


def required_samples(p: float, delta: float) -> int:
    """Lemma 2: smallest k with PR{|X̄ − μ| ≥ p·b} ≤ δ, i.e.
    ``k = ceil(ln(2/δ) / (2 p²))``."""
    if not (0 < p <= 1) or not (0 < delta < 1):
        raise ValueError("need 0 < p <= 1 and 0 < delta < 1")
    return math.ceil(math.log(2.0 / delta) / (2.0 * p * p))


def hoeffding_bound(k: int, p: float) -> float:
    """Lemma 2 failure probability: ``2·exp(−2kp²)``."""
    return 2.0 * math.exp(-2.0 * k * p * p)


# ---------------------------------------------------------------------------
# Local estimator
# ---------------------------------------------------------------------------

def _count_for_values(
    db: LocalDB,
    order: Sequence[str],
    values: np.ndarray,
    budget_seconds: float | None = None,
) -> tuple[np.ndarray, int, float, int]:
    """Leapfrog counts ``|T_{A=a}|`` for each ``a`` (A = order[0]), all in
    one kernel run with the values pinned at level 0.

    Returns (counts, total_extensions, count_elapsed, processed). A
    ``budget_seconds`` cap stops early (hub values can be arbitrarily
    heavy); only the values whose counts finished are returned, and the
    estimator scales by them. If none finished, the partial counts of the
    values under way are returned as lower bounds, so even one over-budget
    hub value yields a usable (if coarse) sample.
    """
    order = tuple(order)
    tries = [
        trie_for_order(rows, attrs, order) for attrs, rows in db.values()
    ]
    t0 = time.monotonic()  # tries built above: pure counting time follows
    deadline = t0 + budget_seconds if budget_seconds else None
    try:
        res = leapfrog(
            tries, order, emit=False, pinned=values, deadline=deadline
        )
    except LeapfrogTimeout as e:
        res = e.partial
    done = res.value_done
    if not done.any():
        done = res.value_counts > 0
    counts = res.value_counts[done]
    return counts, res.extensions, time.monotonic() - t0, len(counts)


def _val_of_attr_local(db: LocalDB, attr: str) -> np.ndarray:
    """``val(A)``: intersection of per-relation projections on A."""
    projs = [
        np.unique(rows[:, attrs.index(attr)])
        for attrs, rows in db.values()
        if attr in attrs
    ]
    if not projs:
        raise ValueError(f"attribute {attr} in no relation")
    return reduce(
        lambda x, y: np.intersect1d(x, y, assume_unique=True), projs
    )


def estimate_cardinality_local(
    db: LocalDB,
    order: Sequence[str],
    *,
    k: int = 200,
    seed: int = 0,
    budget_seconds: float | None = None,
) -> CardinalityEstimate:
    """Sampling estimator on local numpy relations; samples on order[0].
    ``budget_seconds`` caps the counting loop (scaling by the samples
    actually processed)."""
    t0 = time.monotonic()
    attr = tuple(order)[0]
    vals = _val_of_attr_local(db, attr)
    if len(vals) == 0:
        return CardinalityEstimate(0.0, 0, 0, 0.0, 0, time.monotonic() - t0, attr)
    rng = np.random.default_rng(seed)
    if k >= len(vals):
        sample = vals
    else:
        sample = rng.choice(vals, size=k, replace=False)
    counts, ext, count_el, used = _count_for_values(
        db, order, sample, budget_seconds
    )
    mean_x = float(counts.mean()) if used else 0.0
    return CardinalityEstimate(
        estimate=float(len(vals)) * mean_x,
        val_count=int(len(vals)),
        k=used,
        mean_x=mean_x,
        extensions=ext,
        elapsed=time.monotonic() - t0,
        attr=attr,
        max_x=float(counts.max()) if used else 0.0,
        count_elapsed=count_el,
    )


# ---------------------------------------------------------------------------
# Distributed estimator
# ---------------------------------------------------------------------------

def estimate_cardinality_spark(
    spark: SparkSession,
    relations: Mapping[str, DataFrame],
    schemas: Mapping[str, Sequence[str]],
    order: Sequence[str],
    *,
    k: int = 200,
    seed: int = 0,
) -> CardinalityEstimate:
    """The distributed sampling pipeline of §IV.

    1. ``val(A)`` via intersecting per-relation projections (DataFrames).
    2. Sample ``k`` values of ``val(A)``.
    3. Semi-join-reduce every relation containing ``A`` against the
       sample (the "reduce the database before shuffling" optimization).
    4. Broadcast the reduced database; each executor task counts its
       slice of the sample in one pinned Leapfrog run.
    """
    t0 = time.monotonic()
    order = tuple(order)
    attr = order[0]
    schemas = {n: tuple(a) for n, a in schemas.items()}
    with_a = [n for n, attrs in schemas.items() if attr in attrs]
    if not with_a:
        raise ValueError(f"attribute {attr} in no relation")
    projs = [
        relations[n].select(F.col(attr).alias("v")).distinct() for n in with_a
    ]
    val_df = reduce(lambda x, y: x.join(y, on="v", how="inner"), projs)
    val_df = val_df.persist()
    try:
        val_count = val_df.count()
        if val_count == 0:
            return CardinalityEstimate(
                0.0, 0, 0, 0.0, 0, time.monotonic() - t0, attr
            )
        if k >= val_count:
            sample_rows = val_df.collect()
        else:
            sample_rows = (
                val_df.orderBy(F.rand(seed)).limit(k).collect()
            )
        sample = np.array([r["v"] for r in sample_rows], dtype=np.int64)
        sample_df = spark.createDataFrame(
            [(int(v),) for v in sample], schema="v long"
        )
        reduced: LocalDB = {}
        for n, attrs in schemas.items():
            df = relations[n]
            if attr in attrs:
                df = df.join(
                    sample_df, on=df[attr] == sample_df["v"], how="left_semi"
                )
            rows = np.asarray(
                df.select(*attrs).toPandas().to_numpy(dtype=np.int64)
            ).reshape(-1, len(attrs))
            reduced[n] = (attrs, rows)
    finally:
        val_df.unpersist()

    sc = spark.sparkContext
    bc = sc.broadcast(reduced)
    n_slices = min(len(sample), sc.defaultParallelism)

    def part(values):
        values = list(values)
        if not values:
            return iter(())
        counts, ext, elapsed, used = _count_for_values(
            bc.value, order, np.asarray(values, dtype=np.int64)
        )
        mx = float(counts.max()) if used else 0.0
        return iter([(counts.sum(), used, ext, elapsed, mx)])

    parts = (
        sc.parallelize([int(v) for v in sample], numSlices=n_slices)
        .mapPartitions(part)
        .collect()
    )
    bc.destroy()
    total = sum(p[0] for p in parts)
    used = sum(p[1] for p in parts)
    ext = int(sum(p[2] for p in parts))
    mean_x = total / used if used else 0.0
    return CardinalityEstimate(
        estimate=float(val_count) * mean_x,
        val_count=val_count,
        k=used,
        mean_x=float(mean_x),
        extensions=ext,
        elapsed=time.monotonic() - t0,
        attr=attr,
        max_x=float(max((p[4] for p in parts), default=0.0)),
    )


# ---------------------------------------------------------------------------
# Sub-query projection (prefix estimates for the optimizer)
# ---------------------------------------------------------------------------

def project_db(db: LocalDB, attrs: Sequence[str]) -> LocalDB:
    """Project every relation onto ``attrs`` (dropping relations with no
    overlap, deduping rows) — the prefix sub-query of §III-B used to
    estimate ``|T^{v_i}|``."""
    keep = tuple(attrs)
    out: LocalDB = {}
    for name, (rattrs, rows) in db.items():
        inter = [a for a in rattrs if a in keep]
        if not inter:
            continue
        cols = [rattrs.index(a) for a in inter]
        sub = np.unique(rows[:, cols], axis=0) if rows.size else rows[:, cols]
        out[name] = (tuple(inter), sub)
    return out
