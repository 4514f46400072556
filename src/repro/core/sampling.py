"""Cardinality estimation via sampling (paper §IV).

``|T| = |val(A)| · mean(|T_{A=a}|)`` over uniformly sampled ``a`` from
``val(A) = ∩_{R ∋ A} Π_A R``. The per-value counts of one estimate come
from a single Leapfrog run with every sampled value pinned at level 0:
the kernel extends all of them as one batch and returns one count per
value. Chernoff–Hoeffding (Lemma 2) gives ``k(p, δ)``.

The estimator runs on driver-local numpy relations
(:func:`estimate_cardinality_local`): the Alg. 2 optimizer issues many
prefix sub-query estimates per test-case, and ``run_adj`` already holds
the graph on the driver. Each estimate reads the relations projected
onto its attributes (the prefix sub-query of §III-B) from a
:class:`~repro.leapfrog.trie.TrieCache`, which the optimizer keeps for
one ``optimize`` call, so each distinct trie is built once.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import TrieCache

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

def estimate_cardinality_local(
    db: LocalDB,
    order: Sequence[str],
    *,
    k: int = 200,
    seed: int = 0,
    budget_seconds: float | None = None,
    tries: TrieCache | None = None,
) -> CardinalityEstimate:
    """Sampling estimator on local numpy relations; samples on order[0].

    Every relation is projected onto the attributes of ``order`` it has,
    and one with none is dropped: over a prefix of a query's attributes
    this is the prefix sub-query of §III-B. The projections' tries, in
    ``order``, come from ``tries`` (a fresh cache if none is given); they
    dedupe the rows a projection repeats. ``val(A)`` is the intersection
    of the level-0 values of the tries that start with A. The sampled values'
    counts ``|T_{A=a}|`` come from one kernel run with them pinned at
    level 0. A ``budget_seconds`` cap stops early (hub values can be
    arbitrarily heavy) and the estimate scales by the values whose counts
    finished. If none finished, the partial counts of the values under
    way are used as lower bounds, so even one over-budget hub value
    yields a usable (if coarse) sample.
    """
    order = tuple(order)
    cache = TrieCache() if tries is None else tries
    rel_tries = [
        cache(rows, attrs, order)
        for attrs, rows in db.values()
        if not set(attrs).isdisjoint(order)
    ]
    projs = [t.values[0] for t in rel_tries if t.attrs[0] == order[0]]
    if not projs:
        raise ValueError(f"attribute {order[0]} in no relation")
    vals = reduce(
        lambda x, y: np.intersect1d(x, y, assume_unique=True), projs
    )
    if len(vals) == 0:
        return CardinalityEstimate(0.0, 0, 0, 0.0, 0)
    rng = np.random.default_rng(seed)
    if k >= len(vals):
        sample = vals
    else:
        sample = rng.choice(vals, size=k, replace=False)
    deadline = time.monotonic() + budget_seconds if budget_seconds else None
    res = leapfrog(
        rel_tries, order, emit=False, pinned=sample, deadline=deadline
    )
    done = res.value_done
    if not done.any():
        done = res.value_counts > 0
    counts = res.value_counts[done]
    mean_x = float(counts.mean()) if len(counts) else 0.0
    return CardinalityEstimate(
        estimate=float(len(vals)) * mean_x,
        val_count=int(len(vals)),
        k=len(counts),
        mean_x=mean_x,
        extensions=res.extensions,
    )

