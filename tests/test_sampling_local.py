"""Unit tests for the local sampling estimator and Hoeffding bound (§IV)."""
import importlib
import itertools
import time
from functools import reduce
from unittest import mock

import duckdb
import numpy as np
import pytest

from repro.core.query import get_query
from repro.core.sampling import (
    estimate_cardinality_local,
    hoeffding_bound,
    required_samples,
)
from repro.leapfrog import leapfrog
from repro.leapfrog.trie import TrieCache, trie_for_order
from repro.synth_data import tiny_graph_pdf

# the module, not the function the package re-exports under its name
lf_module = importlib.import_module("repro.leapfrog.leapfrog")


def _db_for(qname, edges):
    q = get_query(qname)
    rows = edges[["src", "dst"]].to_numpy()
    return q, {r.name: (r.attrs, rows) for r in q.relations}


def _value_counts(db, order):
    """val(order[0]) and each value's |T_{A=a}|, from one Leapfrog run
    with every value pinned."""
    a = order[0]
    vals = reduce(np.intersect1d, [
        rows[:, attrs.index(a)] for attrs, rows in db.values() if a in attrs
    ])
    tries = [trie_for_order(rows, attrs, order) for attrs, rows in db.values()]
    res = leapfrog(tries, order, emit=False, pinned=vals)
    return vals, res


def project_db(db, attrs):
    """Every relation projected onto ``attrs``, those with no overlap
    dropped — the prefix sub-query the estimator reads, built
    explicitly."""
    out = {}
    for name, (rattrs, rows) in db.items():
        inter = [a for a in rattrs if a in attrs]
        if inter:
            out[name] = (
                tuple(inter), rows[:, [rattrs.index(a) for a in inter]]
            )
    return out


def _duck_count(sql, edges):
    con = duckdb.connect()
    try:
        con.register("e", edges)
        return con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
    finally:
        con.close()


class TestHoeffding:
    def test_required_samples_formula(self):
        # k = ceil(ln(2/δ) / (2p²))
        assert required_samples(0.1, 0.05) == int(
            np.ceil(np.log(2 / 0.05) / (2 * 0.01))
        )

    def test_monotone_in_p(self):
        assert required_samples(0.05, 0.05) > required_samples(0.1, 0.05)

    def test_monotone_in_delta(self):
        assert required_samples(0.1, 0.01) > required_samples(0.1, 0.1)

    def test_bound_value(self):
        assert hoeffding_bound(100, 0.1) == pytest.approx(
            2 * np.exp(-2 * 100 * 0.01)
        )

    def test_bound_below_delta_at_required_k(self):
        p, delta = 0.07, 0.03
        k = required_samples(p, delta)
        assert hoeffding_bound(k, p) <= delta

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            required_samples(0, 0.1)
        with pytest.raises(ValueError):
            required_samples(0.1, 1.5)


class TestValOfAttr:
    """val(A) as the estimator sees it: with k ≥ |val(A)| every value is
    sampled, so ``val_count`` and ``k`` are both |val(A)|."""

    def test_triangle_val_a(self):
        q, db = _db_for("Q1", tiny_graph_pdf())
        rows = db["R1"][1]
        # a appears as src of R1 and src of R3 → val(a) = distinct src
        expect = np.unique(rows[:, 0])
        est = estimate_cardinality_local(db, ("a", "b", "c"), k=10**9)
        assert est.val_count == est.k == len(expect)

    def test_val_b_is_dst_cap_src(self):
        q, db = _db_for("Q1", tiny_graph_pdf())
        rows = db["R1"][1]
        expect = np.intersect1d(np.unique(rows[:, 1]), np.unique(rows[:, 0]))
        est = estimate_cardinality_local(db, ("b", "a", "c"), k=10**9)
        assert est.val_count == est.k == len(expect)

    def test_missing_attr(self):
        _, db = _db_for("Q1", tiny_graph_pdf())
        with pytest.raises(ValueError, match="in no relation"):
            estimate_cardinality_local(db, ("z", "a", "b", "c"))


class TestEstimateLocal:
    @pytest.mark.parametrize("qname,order", [
        ("Q1", ("a", "b", "c")),
        ("Q7", ("a", "b", "c")),
        ("Q2", ("a", "b", "c", "d")),
    ])
    def test_full_sampling_is_exact(self, qname, order):
        """Sampling every value of val(A) recovers |T| exactly."""
        edges = tiny_graph_pdf()
        q, db = _db_for(qname, edges)
        est = estimate_cardinality_local(db, order, k=10**9)
        assert est.estimate == pytest.approx(_duck_count(q.to_sql(), edges))

    def test_partial_sampling_close(self):
        """With half the values sampled the estimate lands within 3× of
        truth on the test graph (loose — this is an expectation test)."""
        edges = tiny_graph_pdf(n_edges=500, n_nodes=50, seed=9)
        q, db = _db_for("Q1", edges)
        truth = _duck_count(q.to_sql(), edges)
        if truth == 0:
            pytest.skip("no triangles")
        est = estimate_cardinality_local(db, ("a", "b", "c"), k=20, seed=1)
        D = max(est.estimate, truth) / max(min(est.estimate, truth), 1)
        assert D < 5.0

    def test_deterministic_in_seed(self):
        edges = tiny_graph_pdf()
        _, db = _db_for("Q1", edges)
        e1 = estimate_cardinality_local(db, ("a", "b", "c"), k=5, seed=3)
        e2 = estimate_cardinality_local(db, ("a", "b", "c"), k=5, seed=3)
        assert e1.estimate == e2.estimate

    def test_empty_val_returns_zero(self):
        db = {
            "R1": (("a", "b"), np.array([[1, 2]], dtype=np.int64)),
            "R2": (("a", "c"), np.array([[7, 3]], dtype=np.int64)),
        }
        est = estimate_cardinality_local(db, ("a", "b", "c"), k=10)
        assert est.estimate == 0.0
        assert est.val_count == 0

    @pytest.mark.parametrize("qname,order", [
        ("Q1", ("a", "b", "c")),
        ("Q2", ("a", "b", "c", "d")),
    ])
    def test_batched_counts_per_value(self, qname, order):
        """One batched run gives each value's |T_{A=a}| as DuckDB does."""
        edges = tiny_graph_pdf()
        q, db = _db_for(qname, edges)
        values, res = _value_counts(db, order)
        con = duckdb.connect()
        try:
            con.register("e", edges)
            expect = dict(con.execute(
                f"SELECT {order[0]}, count(*) FROM ({q.to_sql()}) "
                f"GROUP BY {order[0]}"
            ).fetchall())
        finally:
            con.close()
        assert res.value_done.all()
        assert res.value_counts.tolist() == [
            expect.get(int(v), 0) for v in values
        ]
        assert res.extensions >= res.value_counts.sum()
        est = estimate_cardinality_local(db, order, k=10**9)
        assert (est.val_count, est.k) == (len(values), len(values))
        assert est.extensions == res.extensions
        assert est.estimate == pytest.approx(res.value_counts.sum())

    def test_passed_budget_uses_fewer_values(self):
        """A budget already spent ends the estimate early, without raising,
        on the values whose counts finished."""
        edges = tiny_graph_pdf()
        _, db = _db_for("Q1", edges)
        est = estimate_cardinality_local(
            db, ("a", "b", "c"), k=20, budget_seconds=1e-9
        )
        assert est.k < 20

    def test_over_budget_hub_value_is_lower_bound(self):
        """When no value finishes within the budget, the value under way
        still counts with its partial count, a lower bound above 0. R1 is
        cut to the hub's rows, so val(a) is the hub alone. The clock
        advances one second per reading, so each budget cuts after a fixed
        number of chunks."""
        edges = tiny_graph_pdf()
        _, db = _db_for("Q1", edges)
        order = ("a", "b", "c")
        values, res = _value_counts(db, order)
        hub = values[int(np.argmax(res.value_counts))]
        truth = int(res.value_counts.max())
        attrs, rows = db["R1"]
        db["R1"] = (attrs, rows[rows[:, attrs.index("a")] == hub])
        cut_above_zero = 0
        with mock.patch.object(lf_module, "_CHUNK", 1):
            for budget in range(2, 10_000):
                clock = itertools.count()
                with mock.patch.object(
                    time, "monotonic", lambda: float(next(clock))
                ):
                    est = estimate_cardinality_local(
                        db, order, budget_seconds=budget
                    )
                assert est.val_count == 1
                if est.k and est.mean_x == truth:
                    break
                assert est.k <= 1 and est.mean_x <= truth
                cut_above_zero += bool(est.k and est.mean_x > 0)
        assert cut_above_zero > 0


class TestProjectDB:
    """The estimator reads each relation projected onto the order's
    attributes: the same estimate as over the explicit projection,
    deduped or not."""

    def test_projection_drops_and_dedupes(self):
        """A relation with no overlap is dropped; the duplicate rows a
        projection leaves are deduped by the sampler's tries, so the
        estimate over the full relations equals the one over the raw and
        the deduped projection."""
        db = {
            "R1": (("a", "b"), np.array([[1, 2], [1, 3]], dtype=np.int64)),
            "R2": (("c", "d"), np.array([[5, 6]], dtype=np.int64)),
        }
        est = estimate_cardinality_local(db, ("a",), k=10)
        assert (est.estimate, est.val_count, est.k) == (1.0, 1, 1)
        q, gdb = _db_for("Q4", tiny_graph_pdf())
        for attrs in (("a", "b", "c"), ("b", "d", "e"), ("a", "b", "e", "d")):
            raw = project_db(gdb, attrs)
            deduped = {
                n: (a, np.unique(r, axis=0)) for n, (a, r) in raw.items()
            }
            assert any(len(r) < len(raw[n][1]) for n, (_, r) in deduped.items())
            got, *want = (
                estimate_cardinality_local(d, attrs, k=30, seed=2)
                for d in (gdb, raw, deduped)
            )
            for w in want:
                assert got.estimate == w.estimate
                assert (got.val_count, got.k) == (w.val_count, w.k)
                assert got.extensions == w.extensions

    def test_projection_keeps_overlap_order(self):
        """A relation's projection is laid out in the order's column order,
        whatever the relation's own column order."""
        rows = np.array([[2, 1, 7]], dtype=np.int64)
        trie = TrieCache()(rows, ("b", "a", "z"), ("a", "b"))
        assert trie.attrs == ("a", "b")
        assert [v.tolist() for v in trie.values] == [[1], [2]]

    def test_prefix_estimate_upper_bounds_truth(self):
        """The projected sub-query overestimates (never underestimates)
        the true prefix binding count when sampled exhaustively."""
        edges = tiny_graph_pdf()
        q, db = _db_for("Q1", edges)
        est = estimate_cardinality_local(db, ("a", "b"), k=10**9)
        assert est.estimate == estimate_cardinality_local(
            project_db(db, ("a", "b")), ("a", "b"), k=10**9
        ).estimate
        # true prefix count for (a,b) in the triangle query: pairs that
        # survive all projections — here exactly |Π_ab semi-filtered|
        truth = _duck_count(
            "SELECT DISTINCT r0.src AS a, r0.dst AS b FROM e r0 "
            "JOIN e r1 ON r1.src = r0.dst JOIN e r2 ON r2.src = r0.src",
            edges,
        )
        assert est.estimate >= truth


class TestTrieCache:
    def test_one_build_per_array_and_columns(self, monkeypatch):
        """Relations read from one array share a trie per column
        selection, renamed to each relation's attributes."""
        import repro.leapfrog.trie as trie_module

        built = []
        init = trie_module.Trie.__init__

        def counted(self, rows, attrs):
            built.append(tuple(attrs))
            init(self, rows, attrs)

        monkeypatch.setattr(trie_module.Trie, "__init__", counted)
        q, db = _db_for("Q4", tiny_graph_pdf())
        cache = TrieCache()
        order = ("a", "b", "c", "d", "e")
        tries = [cache(rows, attrs, order) for attrs, rows in db.values()]
        # five relations read (src, dst) in the order; R5(e, a) reads
        # (dst, src)
        assert len(built) == 2
        cache(db["R1"][1], ("a", "b"), ("a",))
        cache(db["R2"][1], ("b", "c"), ("c",))
        assert len(built) == 4  # the two one-column projections
        assert cache(db["R3"][1], ("c", "d"), ("c",)).attrs == ("c",)
        assert len(built) == 4
        for t, (attrs, rows) in zip(tries, db.values()):
            fresh = trie_for_order(rows, attrs, order)
            assert t.attrs == fresh.attrs
            for a, b in zip(t.values, fresh.values):
                assert a.tolist() == b.tolist()

    def test_estimates_read_one_cache(self):
        """Estimates through a shared cache equal fresh ones."""
        q, db = _db_for("Q4", tiny_graph_pdf())
        cache = TrieCache()
        for attrs in (("a", "b", "c"), ("b", "d", "e"), ("a", "b", "e", "d")):
            got = estimate_cardinality_local(
                db, attrs, k=20, seed=4, tries=cache
            )
            want = estimate_cardinality_local(db, attrs, k=20, seed=4)
            assert got == want
