"""Unit tests for the LP substrate (the fractional edge cover ρ*)."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.simplex import fractional_edge_cover


def packing_optimum(attrs, edges):
    """Reference ρ*: the best vertex of the dual packing LP
    ``max Σ y  s.t.  Σ_{a∈e} y_a ≤ 1 per edge, y ≥ 0``. Each vertex is
    the solution of n tight rows among the edge and nonnegativity rows."""
    n = len(attrs)
    rows = [[float(a in e) for a in attrs] for e in edges] + (-np.eye(n)).tolist()
    rhs = [1.0] * len(edges) + [0.0] * n
    A, b = np.array(rows), np.array(rhs)
    best = -np.inf
    for tight in itertools.combinations(range(len(rows)), n):
        M = A[list(tight)]
        if np.linalg.matrix_rank(M) < n:
            continue
        y = np.linalg.solve(M, b[list(tight)])
        if (A @ y <= b + 1e-9).all():
            best = max(best, y.sum())
    return best


class TestFractionalEdgeCover:
    def test_single_edge(self):
        rho, x = fractional_edge_cover(["a", "b"], [frozenset({"a", "b"})])
        assert rho == pytest.approx(1.0)
        assert x[0] == pytest.approx(1.0)

    def test_triangle_is_three_halves(self):
        edges = [frozenset(p) for p in [("a", "b"), ("b", "c"), ("a", "c")]]
        rho, _ = fractional_edge_cover(["a", "b", "c"], edges)
        assert rho == pytest.approx(1.5)

    def test_five_clique_is_five_halves(self):
        attrs = list("abcde")
        edges = [
            frozenset({x, y}) for x in attrs for y in attrs if x < y
        ]
        rho, _ = fractional_edge_cover(attrs, edges)
        assert rho == pytest.approx(2.5)

    def test_odd_cycle_five(self):
        # fractional cover of C5 = 5/2
        attrs = list("abcde")
        edges = [
            frozenset(p)
            for p in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
        ]
        rho, _ = fractional_edge_cover(attrs, edges)
        assert rho == pytest.approx(2.5)

    def test_subset_attrs(self):
        edges = [frozenset({"a", "b"}), frozenset({"b", "c"})]
        rho, _ = fractional_edge_cover(["b"], edges)
        assert rho == pytest.approx(1.0)

    def test_empty_attrs(self):
        rho, x = fractional_edge_cover([], [frozenset({"a"})])
        assert rho == 0.0

    def test_uncovered_attr_raises(self):
        with pytest.raises(ValueError):
            fractional_edge_cover(["z"], [frozenset({"a", "b"})])

    def test_two_disjoint_unit_edges(self):
        rho, x = fractional_edge_cover(["a", "b"], [frozenset("a"), frozenset("b")])
        assert rho == pytest.approx(2.0)
        assert x.tolist() == pytest.approx([1.0, 1.0])

    def test_two_edges_sharing_the_one_attr(self):
        rho, x = fractional_edge_cover(["a"], [frozenset("a"), frozenset("a")])
        assert rho == pytest.approx(1.0)
        assert x.sum() == pytest.approx(1.0)

    def test_fractional_optimum_triangle(self):
        # triangle cover LP: 3 edges ab, bc, ca; the only optimum puts 1/2
        # on each edge, so no integral cover reaches ρ* = 3/2
        edges = [frozenset(p) for p in [("a", "b"), ("b", "c"), ("c", "a")]]
        rho, x = fractional_edge_cover(["a", "b", "c"], edges)
        assert rho == pytest.approx(1.5)
        assert x.tolist() == pytest.approx([0.5, 0.5, 0.5])

    def test_irrelevant_edges_get_zero_weight(self):
        edges = [frozenset({"a", "b"}), frozenset({"x", "y"})]
        rho, x = fractional_edge_cover(["a"], edges)
        assert rho == pytest.approx(1.0)
        assert x[1] == pytest.approx(0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        edges=st.lists(
            st.frozensets(st.sampled_from("abcd"), min_size=1, max_size=3),
            min_size=1,
            max_size=6,
        ),
        data=st.data(),
    )
    def test_random_hypergraphs_match_vertex_enumeration(self, edges, data):
        """On random hypergraphs (≤ 4 attributes, arity 1–3, ≤ 6 edges) the
        returned x is a cover summing to ρ*, and ρ* is the packing LP's
        optimum found by enumerating its vertices."""
        covered = sorted(set().union(*edges))
        attrs = data.draw(
            st.lists(st.sampled_from(covered), min_size=1, unique=True)
        )
        rho, x = fractional_edge_cover(attrs, edges)
        assert (x >= -1e-9).all()
        for a in attrs:
            assert sum(x[i] for i, e in enumerate(edges) if a in e) >= 1 - 1e-7
        assert x.sum() == pytest.approx(rho, abs=1e-7)
        assert rho == pytest.approx(packing_optimum(attrs, edges), abs=1e-7)
