"""Reference results computed independently of the ADJ code.

Two methods, neither of which imports ``repro``:

* DuckDB: each query relation is a copy of the edge table ``e(src, dst)``,
  so the natural join becomes a multi-way self-join whose equality
  predicates tie together every occurrence of an attribute.
* Adjacency-matrix algebra: with ``A[u, v] = 1`` for each edge, the join
  count is a sum of elementwise products of powers of ``A`` (a path of
  length k between two vertices is counted by ``A^k``). It is exact for
  these counts (far below 2**53) and takes milliseconds, so it checks
  any seed at run time.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd


def query_sql(edges: tuple[tuple[str, str], ...], count_only: bool) -> str:
    attrs = sorted({a for e in edges for a in e})
    first: dict[str, str] = {}
    wheres: list[str] = []
    for i, (x, y) in enumerate(edges):
        for attr, col in ((x, f"r{i}.src"), (y, f"r{i}.dst")):
            if attr in first:
                wheres.append(f"{first[attr]} = {col}")
            else:
                first[attr] = col
    froms = ", ".join(f"e AS r{i}" for i in range(len(edges)))
    select = (
        "count(*)"
        if count_only
        else ", ".join(f"{first[a]} AS {a}" for a in attrs)
    )
    return f"SELECT {select} FROM {froms} WHERE {' AND '.join(wheres)}"


def matrix_count(edges_pdf: pd.DataFrame, query: str) -> int:
    """Join count of Q2 or Q4 over the edge table, by matrix products."""
    ids, inv = np.unique(
        edges_pdf[["src", "dst"]].to_numpy().ravel(), return_inverse=True
    )
    inv = inv.reshape(-1, 2)
    a = np.zeros((len(ids), len(ids)))
    a[inv[:, 0], inv[:, 1]] = 1.0
    a2 = a @ a
    if query == "Q2":
        # a→c, a→b→c and c→d→a for each (a, c)
        total = (a * a2 * a2.T).sum()
    elif query == "Q4":
        # b→e, e→a→b and b→c→d→e for each (b, e)
        total = (a * a2.T * (a2 @ a)).sum()
    else:
        raise ValueError(f"no matrix count for {query}")
    return int(round(total))


def canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order, so two row sets compare with
    ``np.array_equal``; duplicates are kept so they show as a mismatch."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows[np.lexsort(rows.T[::-1])]


def duckdb_result(
    edges_pdf: pd.DataFrame,
    query_edges: tuple[tuple[str, str], ...],
    count_only: bool,
    temp_dir: str,
) -> int | np.ndarray:
    """The join's count, or its rows over the sorted attribute names."""
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 4")
        con.execute("SET enable_progress_bar = false")
        con.execute(f"SET temp_directory = '{temp_dir}'")
        con.register("e", edges_pdf[["src", "dst"]])
        sql = query_sql(query_edges, count_only)
        if count_only:
            return int(con.execute(sql).fetchone()[0])
        cols = con.execute(sql).fetchnumpy()
        return canonical_rows(np.column_stack([cols[a] for a in sorted(cols)]))
    finally:
        con.close()
