"""HCube shuffle as a DataFrame transformation (paper §II-A, §V).

Each tuple of relation ``R`` is routed to every server whose hypercube
coordinate agrees with the tuple's hashed values on ``attrs(R)``
(``h_A(x) = x mod p_A``, the paper's example hash); the coordinates of
attributes outside ``attrs(R)`` are free. Coordinates are linearized
into a server id with mixed-radix strides over the attribute order, so a
tuple's server ids are its own coordinate ``c = Σ pmod(a, p_a)·stride_a``
plus each of the free coordinates' offsets, which the driver enumerates
once per relation.

Columns are read by position, so the relations drawn from one DataFrame
(every relation of a graph test-case, §VII-A) get their ``(rel, c,
tuple)`` rows from one ``inline(array(struct(…), …))`` over one scan;
only distinct DataFrames are unioned. One ``explode`` then takes a row's
offsets from a single ``CASE rel WHEN … THEN array(<offsets>) END``.

Implementation variants of §V:

* ``push`` — one shuffled row per (tuple, server): the original
  tuple-at-a-time MapReduce-style HCube (Fig. 9's baseline). Its plan
  has one exchange, the one that places servers.
* ``pull`` — before the exchange, one ``groupBy("rel", "c")`` groups each
  relation's tuples into *blocks* keyed by their own hash signature
  (``c`` determines it); whole blocks are replicated to servers (far
  fewer, larger shuffle rows). Its plan has two exchanges, however many
  relations the query has.

The paper's Merge variant (blocks shipped as pre-built tries that servers
merge) is not implemented: every server builds its tries from its
received tuples, so pre-sorting blocks during the shuffle saves nothing.

Both variants emit the same logical rows: ``(server, rel, block)`` with
``block: array<bigint>`` holding the block's tuples **flattened** in trie
column order (reshape by the relation's arity on the receiving side).
Flat blocks cross the Arrow boundary as one contiguous int64 vector, so
the per-server worker reconstructs them with a zero-copy reshape instead
of a per-tuple Python loop.

Servers are placed on ``min(n_servers, task slots)`` Spark partitions,
server ``s`` on partition ``s mod P`` (``repartitionById``, Spark ≥ 4.1):
as many servers run at once as there are slots, and no sampling job is
needed to find the partition boundaries.
"""
from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Mapping, Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

MODES = ("push", "pull")


def order_aligned_attrs(
    rel_attrs: Sequence[str], order: Sequence[str]
) -> tuple[str, ...]:
    """A relation's attributes permuted to follow the global order —
    the trie column order Leapfrog requires."""
    pos = {a: i for i, a in enumerate(order)}
    return tuple(sorted(rel_attrs, key=lambda a: pos[a]))


def strides(order: Sequence[str], shares: Mapping[str, int]) -> dict[str, int]:
    """Mixed-radix strides linearizing a coordinate vector to a server id."""
    out: dict[str, int] = {}
    s = 1
    for a in order:
        out[a] = s
        s *= shares.get(a, 1)
    return out


def n_servers(shares: Mapping[str, int]) -> int:
    return math.prod(shares.values()) if shares else 1


def hcube_shuffle(
    relations: Mapping[str, DataFrame],
    schemas: Mapping[str, Sequence[str]],
    order: Sequence[str],
    shares: Mapping[str, int],
    mode: str = "pull",
) -> DataFrame:
    """Shuffle all relations into ``(server, rel, block)`` rows.

    Column ``i`` of ``relations[name]`` holds ``schemas[name][i]``;
    relations given as one DataFrame object share one scan of it.
    The result is partitioned by ``server`` onto ``min(n_servers, slots)``
    Spark partitions, server ``s`` on partition ``s mod P``; a
    ``groupBy("server")`` over it needs no further exchange.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    order = tuple(order)
    strd = strides(order, shares)
    # one projection per distinct DataFrame, one ``struct`` per relation
    sources: dict[int, tuple[DataFrame, list[str]]] = {}
    offsets: list[str] = []  # one ``WHEN rel THEN array(...)`` per relation
    for name, df in relations.items():
        attrs = tuple(schemas[name])
        if len(df.columns) != len(attrs):
            raise ValueError(f"{name}: {df.columns} do not match {attrs}")
        col = dict(zip(attrs, df.columns))
        aligned = order_aligned_attrs(attrs, order)
        coord = " + ".join(
            f"pmod(CAST(`{col[a]}` AS BIGINT), {shares[a]}) * {strd[a]}"
            for a in aligned
            if shares.get(a, 1) > 1
        )
        tup = ", ".join(f"CAST(`{col[a]}` AS BIGINT)" for a in aligned)
        sources.setdefault(id(df), (df, []))[1].append(
            f"struct('{name}' AS rel, CAST({coord or 0} AS INT) AS c,"
            f" array({tup}) AS block)"
        )
        # server-id offset of every coordinate vector over the free
        # attributes; a relation with none is sent to ``c`` alone
        free = [a for a in order if a not in attrs and shares.get(a, 1) > 1]
        offs = (
            sum(i * strd[a] for a, i in zip(free, vec))
            for vec in itertools.product(*(range(shares[a]) for a in free))
        )
        offsets.append(f"WHEN '{name}' THEN array({', '.join(map(str, offs))})")
    out = reduce(DataFrame.union, [
        df.selectExpr(f"inline(array({', '.join(s)}))")
        for df, s in sources.values()
    ])
    if mode == "pull":
        out = out.groupBy("rel", "c").agg(
            F.expr("flatten(collect_list(block)) AS block")
        )
    out = out.selectExpr(
        f"explode(transform(CASE rel {' '.join(offsets)} END, o -> o + c))"
        " AS server",
        "rel",
        "block",
    )
    slots = out.sparkSession.sparkContext.defaultParallelism
    return out.repartitionById(min(n_servers(shares), slots), "server")
