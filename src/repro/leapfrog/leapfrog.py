"""Leapfrog trie-join (paper Alg. 1), extended a batch of bindings at a time.

The join binds the attributes of ``order`` one at a time, as Alg. 1 does,
but it extends a *frontier* of partial bindings per step instead of one
binding per Python call (the set-at-a-time extension of BigJoin and of
Freitag et al., VLDB 2020, applied inside one server). A frontier holds,
for every binding, the node range each relation's trie has reached. One
step for attribute ``order[i]``:

1. every binding expands the participating relation with the smallest
   candidate range (``np.repeat`` over the ranges, one gather of values);
2. each other participant is probed for all expanded values at once with
   :meth:`Trie.find` — one ``searchsorted`` over a trie level — and the
   values it lacks are dropped;
3. the survivors' child ranges become the next frontier.

Frontiers are cut into chunks of about ``_CHUNK`` candidate values, kept
on a stack and processed depth-first, so live memory stays near
``len(order) × _CHUNK`` bindings; the wall-clock deadline (the paper's
12-hour cap at laptop scale) is checked once per chunk, and a run that
passes it stops and returns what it has counted so far. Per-level
intermediate counts (``|T^i|`` of §III-B and Fig. 8) are recorded, and in
count-only mode a last level with one participant is summed from the
range sizes without materializing it.

A batch of values can be pinned at level 0 (the sampler of §IV): each
pinned value starts its own binding and the result carries one count
``|T_{A=a}|`` per value, and whether that count finished before the
deadline.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.leapfrog.cache import IntersectionCache
from repro.leapfrog.trie import Trie

#: candidate values expanded per chunk
_CHUNK = 1 << 15


@dataclass
class LFResult:
    """Join output plus execution statistics."""

    rows: np.ndarray | None  # (count, n) result tuples; None if count_only
    count: int
    intermediate: list[int] = field(default_factory=list)  # |T^i| per level
    extensions: int = 0  # total intersection values produced (β estimation)
    # one result count per pinned value, and whether it finished: on a
    # run stopped by its deadline an unfinished count is a lower bound
    value_counts: np.ndarray | None = None
    value_done: np.ndarray | None = None


@dataclass
class _Frontier:
    """``n`` partial bindings of ``order[:depth]``."""

    depth: int
    n: int
    lo: dict[int, np.ndarray]  # open trie -> node range start at its next level
    hi: dict[int, np.ndarray]
    cols: list[np.ndarray]  # bound values per depth (emit only)
    grp: np.ndarray | None  # index of the pinned value (pinned only)

    def take(self, a: int, b: int) -> "_Frontier":
        s = slice(a, b)
        return _Frontier(
            self.depth,
            b - a,
            {t: x[s] for t, x in self.lo.items()},
            {t: x[s] for t, x in self.hi.items()},
            [c[s] for c in self.cols],
            None if self.grp is None else self.grp[s],
        )


def leapfrog(
    tries: Sequence[Trie],
    order: Sequence[str],
    *,
    emit: bool = True,
    pinned: np.ndarray | None = None,
    deadline: float | None = None,
    cache: IntersectionCache | None = None,
) -> LFResult:
    """Run Leapfrog over ``tries`` with attribute ``order``.

    ``emit=False`` counts results without materializing them. ``pinned``
    restricts ``order[0]`` to the given values, each counted on its own
    (``LFResult.value_counts``) — the sampler's ``T_{A=a}`` (§IV).
    ``deadline`` is an absolute ``time.monotonic()`` instant; a run that
    passes it stops and returns the counts and statistics so far (a lower
    bound; ``value_done`` marks the pinned values that finished).
    ``cache`` enables the CacheTrieJoin-style intersection memo.
    """
    return _Join(tries, order, emit, pinned, cache).run(deadline)


class _Join:
    """One Leapfrog run: the participant layout, the chunk stack and the
    counters."""

    def __init__(self, tries, order, emit, pinned, cache):
        self.tries = list(tries)
        self.order = tuple(order)
        n = len(self.order)
        if n == 0:
            raise ValueError("empty attribute order")
        pos_in_order = {a: i for i, a in enumerate(self.order)}
        for t in self.tries:
            idxs = [pos_in_order[a] for a in t.attrs]
            if idxs != sorted(idxs):
                raise ValueError(
                    f"trie attrs {t.attrs} not aligned with order {self.order}"
                )
        # participants[i]: (trie index, level in that trie) for order[i]
        self.participants: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for ti, t in enumerate(self.tries):
            for lvl, a in enumerate(t.attrs):
                self.participants[pos_in_order[a]].append((ti, lvl))
        for i, p in enumerate(self.participants):
            if not p:
                raise ValueError(f"attribute {self.order[i]} appears in no relation")
        # order position of each trie's last attribute
        self._last = [pos_in_order[t.attrs[-1]] for t in self.tries]
        self.emit = emit
        self.pinned = None if pinned is None else np.asarray(pinned, np.int64)
        self.cache = cache
        self.stack: list[_Frontier] = []
        self.count = 0
        self.intermediate = [0] * n
        self.value_counts = (
            None if self.pinned is None else np.zeros(len(self.pinned), np.int64)
        )
        self.rows: list[np.ndarray] = []

    def run(self, deadline: float | None) -> LFResult:
        if all(t.n_rows for t in self.tries):
            if self.pinned is None:
                self.stack.append(_Frontier(0, 1, {}, {}, [], None))
            else:
                k = len(self.pinned)
                root = _Frontier(0, k, {}, {}, [], np.arange(k))
                ranges = self._ranges(root)
                cand = self._probe(0, ranges, np.arange(k), self.pinned, {})
                self._extend(root, *cand)
        while self.stack:
            if deadline is not None and time.monotonic() > deadline:
                break
            self._step(self.stack.pop())
        return self._result()

    def _result(self) -> LFResult:
        rows = None
        done = None
        if self.pinned is not None:
            done = np.ones(len(self.pinned), dtype=bool)
            for fr in self.stack:  # values with bindings still to do
                done[fr.grp] = False
        if self.emit:
            rows = (
                np.concatenate(self.rows) if self.rows
                else np.empty((0, len(self.order)), dtype=np.int64)
            )
        return LFResult(
            rows=rows,
            count=self.count,
            intermediate=list(self.intermediate),
            extensions=sum(self.intermediate),
            value_counts=(
                None if self.value_counts is None else self.value_counts.copy()
            ),
            value_done=done,
        )

    # -- one level ----------------------------------------------------------
    def _ranges(self, fr: _Frontier) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per participant of ``order[fr.depth]``: node ranges of every
        binding of ``fr`` (the root range where the trie starts here)."""
        out = []
        for ti, lvl in self.participants[fr.depth]:
            if lvl == 0:
                n0 = len(self.tries[ti].values[0])
                out.append((np.zeros(fr.n, np.int64), np.full(fr.n, n0, np.int64)))
            else:
                out.append((fr.lo[ti], fr.hi[ti]))
        return out

    def _step(self, fr: _Frontier) -> None:
        """Extend every binding of ``fr`` by ``order[fr.depth]``."""
        i = fr.depth
        ranges = self._ranges(fr)
        if self.cache is not None:
            par, vals = self._cached_candidates(i, ranges)
            self._extend(fr, *self._probe(i, ranges, par, vals, {}))
        elif (i == len(self.order) - 1 and not self.emit
              and len(ranges) == 1):
            # count-only last level, one participant: its ranges are the
            # result, nothing to intersect or materialize
            lo, hi = ranges[0]
            self._finish(fr, np.arange(fr.n), hi - lo)
        else:
            self._extend(fr, *self._level_values(i, ranges))

    def _level_values(self, i, ranges):
        """The values of ``order[i]`` in every participant's range, per
        binding: each binding expands its smallest range and probes the
        rest. Returns ``(binding, value, positions)`` in binding order,
        each binding's values ascending."""
        sizes = [hi - lo for lo, hi in ranges]
        which = np.argmin(np.stack(sizes), axis=0)
        groups = []
        for j, (ti, lvl) in enumerate(self.participants[i]):
            sel = np.flatnonzero(which == j)
            if len(sel) == 0:
                continue
            owner, pos = _ragged(ranges[j][0][sel], sizes[j][sel])
            par = sel[owner]
            groups.append(self._probe(
                i, ranges, par, self.tries[ti].values[lvl][pos], {j: pos}
            ))
        if len(groups) == 1:
            return groups[0]
        # merge the sorted runs back into binding order (a stable sort
        # finds the runs, so this is close to linear)
        par = np.concatenate([g[0] for g in groups])
        by = np.argsort(par, kind="stable")
        return (
            par[by],
            np.concatenate([g[1] for g in groups])[by],
            {j: np.concatenate([g[2][j] for g in groups])[by] for j in groups[0][2]},
        )

    def _probe(self, i, ranges, par, vals, pos):
        """Keep the candidates ``vals`` (of bindings ``par``) found in every
        participant of ``order[i]``; ``pos`` maps the participants already
        known to hold them to their node positions, and is completed."""
        pos = dict(pos)
        for j, (ti, lvl) in enumerate(self.participants[i]):
            if j in pos:
                continue
            lo, hi = ranges[j]
            found = self.tries[ti].find(lvl, lo[par], hi[par], vals)
            keep = found >= 0
            if not keep.all():
                par, vals = par[keep], vals[keep]
                pos = {q: p[keep] for q, p in pos.items()}
            pos[j] = found[keep]
        return par, vals, pos

    def _extend(self, fr, par, vals, pos) -> None:
        """Bind ``order[fr.depth] = vals`` for bindings ``par`` of ``fr``;
        ``pos`` holds each participant's node position of the value."""
        i = fr.depth
        self.intermediate[i] += len(vals)
        if i == len(self.order) - 1:
            if self.emit:
                rows = np.empty((len(vals), len(self.order)), dtype=np.int64)
                for d, c in enumerate(fr.cols):
                    rows[:, d] = c[par]
                rows[:, i] = vals
                self.rows.append(rows)
            self._finish(fr, par, None)
            return
        if len(vals) == 0:
            return
        parts = self.participants[i]
        here = {ti for ti, _ in parts}
        lo = {ti: x[par] for ti, x in fr.lo.items()
              if ti not in here and self._last[ti] > i}
        hi = {ti: fr.hi[ti][par] for ti in lo}
        for j, (ti, lvl) in enumerate(parts):
            t = self.tries[ti]
            if lvl + 1 < t.arity:
                lo[ti] = t.child_start[lvl][pos[j]]
                hi[ti] = t.child_end[lvl][pos[j]]
        nxt = _Frontier(
            i + 1,
            len(vals),
            lo,
            hi,
            [c[par] for c in fr.cols] + [vals] if self.emit else [],
            None if fr.grp is None else fr.grp[par],
        )
        self._push(nxt)

    def _push(self, fr: _Frontier) -> None:
        """Push ``fr`` cut into chunks of about ``_CHUNK`` candidates (a
        binding's candidates: its smallest range at the next level). The
        first chunk ends on top, so the stack is worked depth-first."""
        load = np.minimum.reduce([hi - lo for lo, hi in self._ranges(fr)])
        ends = np.cumsum(load)
        if fr.n == 1 or ends[-1] <= _CHUNK:
            self.stack.append(fr)
            return
        window = (ends - load) // _CHUNK
        cuts = (np.flatnonzero(window[1:] != window[:-1]) + 1).tolist()
        bounds = [0, *cuts, fr.n]
        for a, b in reversed(list(zip(bounds[:-1], bounds[1:]))):
            self.stack.append(fr.take(a, b))

    def _finish(self, fr: _Frontier, par, per_binding) -> None:
        """Count results at the last level: one per entry of ``par``, or
        ``per_binding[j]`` for binding ``par[j]`` when given."""
        if per_binding is None:
            n = len(par)
        else:
            n = int(per_binding.sum())
            self.intermediate[-1] += n
        self.count += n
        if self.value_counts is not None:
            self.value_counts += np.bincount(
                fr.grp[par], weights=per_binding, minlength=len(self.value_counts)
            ).astype(np.int64)

    # -- HCubeJ+Cache -------------------------------------------------------
    def _cached_candidates(self, i, ranges):
        """Candidate ``(binding, value)`` pairs of ``order[i]`` through the
        cache, whose key is the participants' node ranges: one lookup per
        distinct key of the chunk, and one batched intersection for the
        keys it misses."""
        parts = self.participants[i]
        keys, inv, mult = np.unique(
            np.stack([x for r in ranges for x in r], axis=1),
            axis=0, return_inverse=True, return_counts=True,
        )
        inv = inv.reshape(-1)

        def key_of(u: int):
            row = keys[u].tolist()
            return (i, tuple(
                (ti, row[2 * j], row[2 * j + 1]) for j, (ti, _) in enumerate(parts)
            ))

        arrays: list[np.ndarray | None] = []
        for u in range(len(keys)):
            arrays.append(self.cache.get(key_of(u)))
            # the key's other bindings in this chunk reuse the entry, as
            # they would looking it up one by one
            self.cache.hits += int(mult[u]) - 1
        miss = [u for u, a in enumerate(arrays) if a is None]
        if miss:
            sub = [(keys[miss, 2 * j], keys[miss, 2 * j + 1])
                   for j in range(len(parts))]
            par, vals, _ = self._level_values(i, sub)
            splits = np.cumsum(np.bincount(par, minlength=len(miss)))[:-1]
            for u, arr in zip(miss, np.split(vals, splits)):
                self.cache.put(key_of(u), arr)
                arrays[u] = arr
        lens = np.array([len(a) for a in arrays], dtype=np.int64)
        par, at = _ragged((np.cumsum(lens) - lens)[inv], lens[inv])
        return par, np.concatenate(arrays)[at]


def _ragged(starts: np.ndarray, counts: np.ndarray):
    """Expand the index ranges ``[starts[j], starts[j] + counts[j])``:
    returns (j, index) for every index of every range, in order."""
    owner = np.repeat(np.arange(len(counts)), counts)
    index = np.arange(len(owner)) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts
    )
    return owner, index
