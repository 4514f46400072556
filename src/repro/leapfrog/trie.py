"""Nested CSR trie over an integer relation.

A relation with columns ordered consistently with the global Leapfrog
attribute order is stored as one sorted-array level per column: level
``l`` holds the distinct length-``l+1`` prefixes' last values plus, per
node, the index range of its children in level ``l+1``. This is the
"trie implemented using three arrays" of the paper's §V (values +
child-start + child-end). Levels below the root also keep a sorted search
key so :meth:`Trie.find` probes a batch of (node range, value) pairs with
one ``searchsorted``.
"""
from __future__ import annotations

import copy
from typing import Sequence

import numpy as np


class Trie:
    """Immutable trie index of an integer relation."""

    def __init__(self, rows: np.ndarray, attrs: Sequence[str]):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            rows = rows.reshape(-1, len(attrs))
        if rows.shape[1] != len(attrs):
            raise ValueError(
                f"rows have {rows.shape[1]} columns, attrs={tuple(attrs)}"
            )
        self.attrs: tuple[str, ...] = tuple(attrs)
        k = len(self.attrs)
        # Lexicographic sort + dedupe (relations are sets of tuples).
        if rows.shape[0]:
            order = np.lexsort(tuple(rows[:, c] for c in range(k - 1, -1, -1)))
            rows = rows[order]
            keep = np.ones(rows.shape[0], dtype=bool)
            keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
            rows = rows[keep]
        n = rows.shape[0]
        self.values: list[np.ndarray] = []
        self.child_start: list[np.ndarray] = []
        self.child_end: list[np.ndarray] = []
        self._keys: list[tuple[np.ndarray, np.ndarray]] = []
        if n == 0:
            for _ in range(k):
                self.values.append(np.empty(0, dtype=np.int64))
                self.child_start.append(np.empty(0, dtype=np.int64))
                self.child_end.append(np.empty(0, dtype=np.int64))
            return
        row_starts: list[np.ndarray] = []
        row_ends: list[np.ndarray] = []
        for level in range(k):
            if level == 0:
                change = rows[1:, 0] != rows[:-1, 0]
            else:
                change = np.any(rows[1:, : level + 1] != rows[:-1, : level + 1], axis=1)
            starts = np.concatenate(([0], np.flatnonzero(change) + 1))
            ends = np.concatenate((starts[1:], [n]))
            self.values.append(rows[starts, level].copy())
            row_starts.append(starts)
            row_ends.append(ends)
        for level in range(k):
            if level + 1 < k:
                cs = np.searchsorted(row_starts[level + 1], row_starts[level])
                ce = np.searchsorted(row_starts[level + 1], row_ends[level])
            else:
                cs = np.zeros(len(row_starts[level]), dtype=np.int64)
                ce = np.zeros(len(row_starts[level]), dtype=np.int64)
            self.child_start.append(cs.astype(np.int64))
            self.child_end.append(ce.astype(np.int64))
        # Search keys of levels 1.. for ``find``: (node range start, rank of
        # the value among the level's distinct values). Node ranges are
        # laid out in parent order and each is sorted, so the keys are
        # sorted over the whole level and one searchsorted probes many
        # (range, value) pairs at once; ranks keep the product in int64.
        for level in range(1, k):
            vals = self.values[level]
            distinct = np.unique(vals)
            starts = self.child_start[level - 1]
            seg = np.repeat(starts, self.child_end[level - 1] - starts)
            keys = seg * (len(distinct) + 1) + np.searchsorted(distinct, vals)
            self._keys.append((keys, distinct))

    # -- navigation --------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.attrs)

    @property
    def n_rows(self) -> int:
        return len(self.values[-1])  # one leaf per distinct row

    def renamed(self, attrs: Sequence[str]) -> "Trie":
        """This trie over other attribute names, sharing every array."""
        if len(attrs) != self.arity:
            raise ValueError(f"{tuple(attrs)} do not name {self.attrs}")
        out = copy.copy(self)
        out.attrs = tuple(attrs)
        return out

    def root_range(self) -> tuple[int, int]:
        """Node-index range of the level-0 values."""
        return 0, len(self.values[0])

    def find(self, level: int, lo, hi, v) -> np.ndarray:
        """Node index of each value ``v`` within node range ``[lo, hi)`` at
        ``level``, or -1 where ``v`` is not there. Vectorized over ``lo``,
        ``hi`` and ``v``; below level 0, ``lo`` must be a node range the
        trie produced (a ``child_start`` entry)."""
        vals = self.values[level]
        v = np.asarray(v, dtype=np.int64)
        if len(vals) == 0:
            return np.full(v.shape, -1, dtype=np.int64)
        if level == 0:
            pos = np.maximum(np.searchsorted(vals, v), lo)
        else:
            keys, distinct = self._keys[level - 1]
            rank = np.searchsorted(distinct, v)
            pos = np.searchsorted(keys, lo * (len(distinct) + 1) + rank)
        found = (pos < hi) & (vals[np.minimum(pos, len(vals) - 1)] == v)
        return np.where(found, pos, -1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trie(attrs={self.attrs}, rows={self.n_rows})"


def trie_for_order(
    rows: np.ndarray, rel_attrs: Sequence[str], order: Sequence[str]
) -> Trie:
    """Build a trie whose column order follows the global attribute
    ``order`` (required by Leapfrog: a relation's attributes must be bound
    in the order the join visits them)."""
    rel_attrs = tuple(rel_attrs)
    pos = {a: i for i, a in enumerate(order)}
    missing = [a for a in rel_attrs if a not in pos]
    if missing:
        raise ValueError(f"attributes {missing} not in order {tuple(order)}")
    perm = sorted(range(len(rel_attrs)), key=lambda i: pos[rel_attrs[i]])
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(rel_attrs))
    return Trie(rows[:, perm], [rel_attrs[i] for i in perm])


class TrieCache:
    """Tries built once per (source array, columns, column order).

    ``cache(rows, rel_attrs, order)`` is the trie of relation ``rows``
    (columns ``rel_attrs``) projected onto the attributes it shares with
    ``order``, its columns in ``order`` — :func:`trie_for_order` on the
    projection. Relations read from one array, as every relation of a
    graph test-case is, share the trie of each column selection; one
    under other attribute names gets it :meth:`Trie.renamed`. The cache
    keeps each source array alive, so an array's ``id`` stays its own.
    """

    def __init__(self) -> None:
        # (id of the source array, its columns in trie order) -> (the
        # array, its trie)
        self._tries: dict[
            tuple[int, tuple[int, ...]], tuple[np.ndarray, Trie]
        ] = {}

    def __call__(
        self, rows: np.ndarray, rel_attrs: Sequence[str], order: Sequence[str]
    ) -> Trie:
        pos = {a: i for i, a in enumerate(order)}
        cols = tuple(
            sorted(
                (i for i, a in enumerate(rel_attrs) if a in pos),
                key=lambda i: pos[rel_attrs[i]],
            )
        )
        if not cols:
            raise ValueError(
                f"{tuple(rel_attrs)} share nothing with {tuple(order)}"
            )
        attrs = tuple(rel_attrs[i] for i in cols)
        key = (id(rows), cols)
        if key not in self._tries:
            data = np.asarray(rows, dtype=np.int64)
            data = data.reshape(-1, len(rel_attrs))[:, list(cols)]
            self._tries[key] = (rows, Trie(data, attrs))
        trie = self._tries[key][1]
        return trie if trie.attrs == attrs else trie.renamed(attrs)
