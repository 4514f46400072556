"""Share-vector optimization for HCube (paper §III-B, Eq. (3)).

Given relations ``R`` with sizes ``|R|`` and a budget of ``P`` hypercubes,
choose integer shares ``p_A ≥ 1`` with ``∏ p_A ≤ P`` minimizing the total
number of shuffled tuples ``Σ_R |R| · dup(R, p)`` where
``dup(R, p) = ∏_{A ∉ attrs(R)} p_A``, subject to the expected per-server
load ``Σ_R |R| · frac(R, p) ≤ M`` with ``frac(R, p) = 1/∏_{A ∈ attrs(R)} p_A``.

Queries here have ≤ 5 attributes and ``P ≤ 64``, so exhaustive
enumeration of share vectors is exact and fast (a few thousand vectors):
the vectors of each ``(#attributes, P)`` are enumerated once, and every
vector's communication and load are computed in one numpy pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


RelSpec = tuple[tuple[str, ...], int]  # (attrs, |R| in tuples)


@dataclass(frozen=True)
class Shares:
    """An optimized share vector."""

    p: dict[str, int]
    n_servers: int  # ∏ p_A — the number of hypercubes
    comm: int  # Σ |R| · dup(R, p)
    load: float  # expected tuples per server
    feasible: bool  # load ≤ M held

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", dict(self.p))


@lru_cache(maxsize=None)
def share_vectors(n_attrs: int, max_product: int) -> np.ndarray:
    """All share vectors with each p_A ≥ 1 and ∏ p_A ≤ max_product, one
    per row of a read-only int64 matrix, in lexicographic order (the
    order ties are broken in)."""
    rows: list[tuple[int, ...]] = [()]
    for _ in range(n_attrs):
        rows = [
            r + (v,)
            for r in rows
            for v in range(1, max_product // math.prod(r) + 1)
        ]
    out = np.array(rows, dtype=np.int64).reshape(len(rows), n_attrs)
    out.setflags(write=False)
    return out


def _comm_load(
    attrs: Sequence[str], relations: Sequence[RelSpec], vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Σ |R| · dup(R, p) and Σ |R| · frac(R, p) for every row ``p`` of
    ``vectors``, the relations added in their given order."""
    pos = {a: i for i, a in enumerate(attrs)}
    for rel_attrs, _ in relations:
        unknown = set(rel_attrs) - set(attrs)
        if unknown:
            raise ValueError(f"relation attrs {unknown} not in query attrs {attrs}")
    # a Python int size keeps the comm column int64, a float makes it
    # float64, as the scalar sum's type would be
    comm = np.zeros(len(vectors), dtype=np.int64)
    load = np.zeros(len(vectors))
    for rel_attrs, size in relations:
        inside = np.zeros(len(attrs), dtype=bool)
        inside[[pos[a] for a in rel_attrs]] = True
        comm = comm + size * vectors[:, ~inside].prod(axis=1)
        load = load + size * (1.0 / vectors[:, inside].prod(axis=1))
    return comm, load


def derive_memory(
    attrs: Sequence[str], relations: Sequence[RelSpec], n_servers: int
) -> float:
    """Per-server capacity M: twice the minimum achievable expected load
    over all share vectors with ``∏ p ≤ n_servers``."""
    vectors = share_vectors(len(attrs), n_servers)
    return 2.0 * float(_comm_load(attrs, relations, vectors)[1].min())


def optimize_shares(
    attrs: Sequence[str],
    relations: Sequence[RelSpec],
    n_servers: int,
    memory_tuples: float | None = None,
) -> Shares:
    """Solve Eq. (3): min communication s.t. memory, by enumeration.

    ``memory_tuples`` is the per-server capacity ``M``; ``None`` disables
    the constraint (then only ``∏ p ≤ n_servers`` binds, and the optimum
    degenerates to spreading nothing — so a memory bound is what forces
    genuine partitioning, as in the paper's cluster). Ties in
    communication go to the lower load, then to more servers, then to
    the first vector of :func:`share_vectors`. If no vector is feasible,
    the first vector with the smallest load is returned with
    ``feasible=False`` (best-effort, mirrors the paper's OOM failures).
    """
    vectors = share_vectors(len(attrs), n_servers)
    comm, load = _comm_load(attrs, relations, vectors)
    ns = vectors.prod(axis=1)
    if memory_tuples is None:
        ok = np.arange(len(vectors))
    else:
        ok = np.flatnonzero(load <= memory_tuples)
    feasible = len(ok) > 0
    if feasible:
        best = ok[np.lexsort((ok, -ns[ok], load[ok], comm[ok]))[0]]
    else:
        best = int(np.argmin(load))
    return Shares(
        dict(zip(attrs, vectors[best].tolist())),
        int(ns[best]),
        comm[best].item(),
        float(load[best]),
        feasible,
    )
