"""One-phase dense simplex for the fractional edge cover LP.

ρ*(attrs), the minimum total weight on hyperedges that covers every
attribute at least once, is by LP duality the maximum fractional packing:
maximize Σ_a y_a subject to Σ_{a∈e} y_a ≤ 1 for every edge e, y ≥ 0. The
packing LP's slack basis is feasible at y = 0 and every y_a ≤ 1 bounds
it, so one simplex phase solves it; Bland's rule keeps it from cycling.
The cover x is the slack columns' reduced costs in the optimal tableau.
Problem sizes are tiny (≤ ~12 edges, ≤ ~8 attributes), so the dense
tableau is more than fast enough.
"""
from __future__ import annotations

import numpy as np

_EPS = 1e-9


def fractional_edge_cover(
    attrs: list[str], edges: list[frozenset[str]]
) -> tuple[float, np.ndarray]:
    """ρ*(attrs): minimum fractional edge cover of ``attrs`` by ``edges``.

    Returns ρ* and the cover, one weight per edge. Edges disjoint from
    ``attrs`` get weight 0 (kept in the returned vector for positional
    stability). Raises if some attribute is in no edge (the cover is then
    infeasible).
    """
    if not attrs:
        return 0.0, np.zeros(len(edges))
    missing = [a for a in attrs if not any(a in e for e in edges)]
    if missing:
        raise ValueError(f"attributes {missing} not covered by any edge")
    use = [i for i, e in enumerate(edges) if e & set(attrs)]
    m, n = len(use), len(attrs)
    # One row per edge over [y | slacks | rhs]; the last row holds the
    # reduced costs of maximizing Σ y, and its last entry the objective.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = [[a in edges[i] for a in attrs] for i in use]
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = 1.0
    T[-1, :n] = -1.0
    basis = list(range(n, n + m))
    while (T[-1, :-1] < -_EPS).any():
        # Bland: the entering column is the first with a negative reduced
        # cost, the leaving row the min ratio with the smallest basic index.
        enter = int(np.argmax(T[-1, :-1] < -_EPS))
        col = T[:m, enter]
        pos = col > _EPS
        ratio = np.where(pos, T[:m, -1] / np.where(pos, col, 1.0), np.inf)
        ties = np.flatnonzero(ratio <= ratio.min() + _EPS)
        row = min(ties, key=basis.__getitem__)
        pivot = T[row] / T[row, enter]
        T -= np.outer(T[:, enter], pivot)
        T[row] = pivot
        basis[row] = enter
    x = np.zeros(len(edges))
    x[use] = T[-1, n:-1]
    return float(T[-1, -1]), x
