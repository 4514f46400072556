"""Unit tests for the Leapfrog trie-join (Alg. 1), checked against DuckDB."""
import importlib
import itertools
import time
from unittest import mock

import duckdb
import pandas as pd
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import get_query
from repro.leapfrog.cache import IntersectionCache
from repro.leapfrog.leapfrog import LeapfrogTimeout, leapfrog
from repro.leapfrog.trie import Trie, trie_for_order
from repro.synth_data import tiny_graph_pdf

# the module, not the function the package re-exports under its name
lf_module = importlib.import_module("repro.leapfrog.leapfrog")


def _duck_count(sql: str, edges) -> int:
    con = duckdb.connect()
    try:
        con.register("e", edges)
        return con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
    finally:
        con.close()


def _tries_for_query(qname: str, edges, order):
    q = get_query(qname)
    rows = edges[["src", "dst"]].to_numpy()
    return q, [trie_for_order(rows, r.attrs, order) for r in q.relations]


class TestLeapfrogSmall:
    def test_paper_example_fig3(self):
        """Fig. 3(b): the server-S0 fragment joins to the single tuple
        (1,2,1,1,2) — wired up with the exact relations of Fig. 3(a)."""
        order = ("a", "b", "c", "d", "e")
        r1 = trie_for_order(np.array([[1, 2, 1], [1, 2, 2]]), ("a", "b", "c"), order)
        r2 = trie_for_order(np.array([[1, 1], [4, 1]]), ("a", "d"), order)
        r3 = trie_for_order(np.array([[1, 1], [1, 2]]), ("c", "d"), order)
        r4 = trie_for_order(np.array([[2, 2], [2, 4]]), ("b", "e"), order)
        r5 = trie_for_order(np.array([[1, 2], [3, 2]]), ("c", "e"), order)
        res = leapfrog([r1, r2, r3, r4, r5], order)
        assert res.rows.tolist() == [[1, 2, 1, 1, 2]]
        assert res.count == 1

    def test_triangle_tiny(self):
        order = ("a", "b", "c")
        rows = np.array([[1, 2], [2, 3], [1, 3], [3, 1]])
        q = get_query("Q1")
        tries = [trie_for_order(rows, r.attrs, order) for r in q.relations]
        res = leapfrog(tries, order)
        assert res.rows.tolist() == [[1, 2, 3]]

    def test_empty_relation_gives_empty(self):
        order = ("a", "b", "c")
        t1 = trie_for_order(np.array([[1, 2]]), ("a", "b"), order)
        t2 = trie_for_order(np.empty((0, 2)), ("b", "c"), order)
        t3 = trie_for_order(np.array([[1, 3]]), ("a", "c"), order)
        res = leapfrog([t1, t2, t3], order)
        assert res.count == 0
        assert res.rows.shape == (0, 3)

    def test_count_only_matches_emit(self):
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        full = leapfrog(tries, order, emit=True)
        cnt = leapfrog(tries, order, emit=False)
        assert cnt.rows is None
        assert cnt.count == full.count == len(full.rows)

    def test_misaligned_trie_rejected(self):
        order = ("a", "b")
        bad = Trie(np.array([[1, 2]]), ("b", "a"))
        with pytest.raises(ValueError):
            leapfrog([bad], order)

    def test_unknown_attr_rejected(self):
        t = Trie(np.array([[1, 2]]), ("a", "b"))
        with pytest.raises(ValueError):
            leapfrog([t], ("a", "b", "z"))

    def test_intermediate_counts(self):
        """|T^i| counters: for the Fig. 3 example T^1..T^5 all have one
        tuple (see Example 1)."""
        order = ("a", "b", "c", "d", "e")
        r1 = trie_for_order(np.array([[1, 2, 1], [1, 2, 2]]), ("a", "b", "c"), order)
        r2 = trie_for_order(np.array([[1, 1], [4, 1]]), ("a", "d"), order)
        r3 = trie_for_order(np.array([[1, 1], [1, 2]]), ("c", "d"), order)
        r4 = trie_for_order(np.array([[2, 2], [2, 4]]), ("b", "e"), order)
        r5 = trie_for_order(np.array([[1, 2], [3, 2]]), ("c", "e"), order)
        res = leapfrog([r1, r2, r3, r4, r5], order)
        assert res.intermediate == [1, 1, 1, 1, 1]

    def test_fixed_prefix(self):
        """Values pinned at level 0 give the rows and one count per value."""
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        full = leapfrog(tries, order, emit=True)
        if full.count == 0:
            pytest.skip("no triangles in tiny graph")
        pinned = np.unique(full.rows[:, 0])[:3]
        fixed = leapfrog(tries, order, emit=True, pinned=pinned)
        expect = full.rows[np.isin(full.rows[:, 0], pinned)]
        assert fixed.rows.tolist() == expect.tolist()
        assert fixed.value_done.all()
        assert fixed.value_counts.tolist() == [
            int((full.rows[:, 0] == v).sum()) for v in pinned
        ]

    def test_fixed_prefix_absent_value(self):
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        res = leapfrog(tries, order, emit=False, pinned=np.array([10**9]))
        assert res.count == 0
        assert res.value_counts.tolist() == [0]

    def test_timeout_raises(self):
        edges = tiny_graph_pdf(n_edges=2000, n_nodes=60)
        order = ("a", "b", "c", "d", "e")
        _, tries = _tries_for_query("Q3", edges, order)
        with pytest.raises(LeapfrogTimeout):
            leapfrog(tries, order, emit=False, deadline=time.monotonic() - 1)

    def test_timeout_keeps_finished_value_counts(self):
        """A pinned run cut by its deadline marks the values it finished,
        with their exact counts; the others' counts are lower bounds. The
        clock advances one second per reading, so each deadline cuts after
        a fixed number of chunks."""
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        pinned = np.unique(edges["src"].to_numpy())
        truth = leapfrog(tries, order, emit=False, pinned=pinned).value_counts
        mixed, cut = 0, 1
        with mock.patch.object(lf_module, "_CHUNK", 2):
            while True:
                cut *= 2
                clock = itertools.count()
                with mock.patch.object(
                    lf_module.time, "monotonic", lambda: float(next(clock))
                ):
                    try:
                        leapfrog(tries, order, emit=False, pinned=pinned,
                                 deadline=cut + 0.5)
                        break
                    except LeapfrogTimeout as e:
                        got = e.partial.value_counts
                        done = e.partial.value_done
                assert (got[done] == truth[done]).all()
                assert (got <= truth).all()
                mixed += bool(done.any() and not done.all())
        assert mixed > 0


QUERY_ORDERS = {
    "Q1": ("a", "b", "c"),
    "Q2": ("a", "b", "c", "d"),
    "Q4": ("a", "b", "e", "c", "d"),
    "Q7": ("a", "b", "c"),
    "Q8": ("a", "b", "c", "d"),
}


class TestLeapfrogVsDuckDB:
    @pytest.mark.parametrize("qname", sorted(QUERY_ORDERS))
    def test_count_matches_oracle(self, qname):
        edges = tiny_graph_pdf()
        order = QUERY_ORDERS[qname]
        q, tries = _tries_for_query(qname, edges, order)
        res = leapfrog(tries, order, emit=False)
        assert res.count == _duck_count(q.to_sql(), edges)

    @pytest.mark.parametrize("qname", ["Q1", "Q2", "Q4"])
    def test_rows_match_oracle(self, qname):
        edges = tiny_graph_pdf(n_edges=150, n_nodes=25, seed=3)
        order = QUERY_ORDERS[qname]
        q, tries = _tries_for_query(qname, edges, order)
        res = leapfrog(tries, order, emit=True)
        con = duckdb.connect()
        try:
            con.register("e", edges)
            # oracle rows reordered to the Leapfrog attribute order
            cols = ", ".join(order)
            expect = con.execute(
                f"SELECT {cols} FROM ({q.to_sql()}) ORDER BY {cols}"
            ).fetchall()
        finally:
            con.close()
        got = sorted(map(tuple, res.rows.tolist()))
        assert got == [tuple(map(int, r)) for r in expect]

    def test_any_order_same_count(self):
        """Result cardinality is order-invariant (Leapfrog correctness)."""
        import itertools

        edges = tiny_graph_pdf(n_edges=120, n_nodes=20, seed=5)
        q = get_query("Q1")
        expect = _duck_count(q.to_sql(), edges)
        rows = edges[["src", "dst"]].to_numpy()
        for order in itertools.permutations(("a", "b", "c")):
            tries = [
                trie_for_order(rows, r.attrs, order) for r in q.relations
            ]
            assert leapfrog(tries, order, emit=False).count == expect


class TestCachedLeapfrog:
    def test_cache_preserves_results(self):
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        plain = leapfrog(tries, order, emit=True)
        cache = IntersectionCache(10_000)
        cached = leapfrog(tries, order, emit=True, cache=cache)
        assert cached.rows.tolist() == plain.rows.tolist()
        assert cache.hits + cache.misses > 0

    def test_cache_hits_on_repeated_positions(self):
        # star query: the (b) extension depends only on a's range, so a
        # second run over the same trie positions hits the cache
        order = ("a", "b", "c", "d")
        edges = tiny_graph_pdf(n_edges=100, n_nodes=10, seed=2)
        _, tries = _tries_for_query("Q8", edges, order)
        cache = IntersectionCache(10_000)
        leapfrog(tries, order, emit=False, cache=cache)
        assert cache.hits > 0  # c and d extensions reuse b's candidates

    def test_bounded_size(self):
        cache = IntersectionCache(2)
        for i in range(5):
            cache.put((i, ()), np.array([i]))
        assert len(cache) == 2

    def test_zero_capacity_noop(self):
        cache = IntersectionCache(0)
        cache.put((1, ()), np.array([1]))
        assert len(cache) == 0


@settings(max_examples=30, deadline=None)
@given(
    e1=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40),
    e2=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40),
)
def test_path_join_property(e1, e2):
    """R1(a,b) ⋈ R2(b,c) computed by Leapfrog equals the nested-loop
    reference for arbitrary relations."""
    order = ("a", "b", "c")
    a1 = np.array(sorted(set(e1)) or np.empty((0, 2)), dtype=np.int64).reshape(-1, 2)
    a2 = np.array(sorted(set(e2)) or np.empty((0, 2)), dtype=np.int64).reshape(-1, 2)
    t1 = trie_for_order(a1, ("a", "b"), order)
    t2 = trie_for_order(a2, ("b", "c"), order)
    res = leapfrog([t1, t2], order, emit=True)
    expect = sorted(
        (a, b, c) for (a, b) in set(e1) for (b2, c) in set(e2) if b == b2
    )
    assert sorted(map(tuple, res.rows.tolist())) == expect


def _relation(attrs):
    """Strategy: (attrs, rows) over small values, duplicates allowed."""
    row = st.tuples(*[st.integers(0, 4)] * len(attrs))
    return st.lists(row, max_size=25).map(lambda rows: (attrs, rows))


@st.composite
def _join_instance(draw):
    """A natural join of 1–4 relations of arity 1–3 over attributes a–d,
    every attribute covered, plus a Leapfrog order."""
    attrs = "abcd"[: draw(st.integers(1, 4))]
    arity = st.integers(1, min(3, len(attrs)))
    schemas = draw(st.lists(
        arity.flatmap(lambda k: st.permutations(attrs).map(lambda p: p[:k])),
        min_size=1, max_size=4,
    ))
    missing = tuple(a for a in attrs if not any(a in s for s in schemas))
    if missing:
        schemas.append(missing)
    rels = [draw(_relation(tuple(s))) for s in schemas]
    return rels, tuple(draw(st.permutations(attrs)))


def _duck_prefix_counts(rels, order) -> list[int]:
    """|T^i| by DuckDB: distinct tuples of the join of every relation
    projected onto ``order[:i+1]`` (a relation with no attribute there
    projects to one empty tuple, or to none when it is empty)."""
    con = duckdb.connect()
    try:
        for k, (attrs, rows) in enumerate(rels):
            con.register(
                f"r{k}",
                pd.DataFrame(np.array(rows, dtype=np.int64).reshape(-1, len(attrs)),
                             columns=list(attrs)),
            )
        out = []
        for i in range(len(order)):
            prefix = order[: i + 1]
            tables, where, col = [], [], {}
            for k, (attrs, _) in enumerate(rels):
                cols = [a for a in attrs if a in prefix] or ["1 AS one"]
                tables.append(f"(SELECT DISTINCT {', '.join(cols)} FROM r{k}) p{k}")
                for a in attrs:
                    if a in col:
                        where.append(f"p{k}.{a} = {col[a]}")
                    elif a in prefix:
                        col[a] = f"p{k}.{a}"
            sql = (
                f"SELECT DISTINCT {', '.join(col[a] for a in prefix)} "
                f"FROM {', '.join(tables)}"
                + (f" WHERE {' AND '.join(where)}" if where else "")
            )
            out.append(
                con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
            )
        return out
    finally:
        con.close()


@settings(max_examples=60, deadline=None)
@given(inst=_join_instance(), chunk=st.integers(1, 3))
def test_join_matches_duckdb_property(inst, chunk):
    """Counts and every |T^i| equal DuckDB on arbitrary small joins, with
    chunks small enough that every frontier is split; the cached and the
    pinned runs agree."""
    rels, order = inst
    tries = [
        trie_for_order(np.array(rows, dtype=np.int64).reshape(-1, len(a)), a, order)
        for a, rows in rels
    ]
    expect = _duck_prefix_counts(rels, order)
    with mock.patch.object(lf_module, "_CHUNK", chunk):
        res = leapfrog(tries, order, emit=True)
        assert res.count == len(res.rows) == expect[-1]
        assert res.intermediate == expect
        assert len({tuple(r) for r in res.rows.tolist()}) == res.count
        cached = leapfrog(tries, order, emit=False, cache=IntersectionCache(8))
        assert cached.intermediate == expect
        values = np.arange(-1, 6)
        pinned = leapfrog(tries, order, emit=False, pinned=values)
        assert pinned.value_counts.tolist() == [
            int((res.rows[:, 0] == v).sum()) for v in values
        ]
