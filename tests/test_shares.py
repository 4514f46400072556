"""Unit tests for the HCube share optimizer (Eq. (3)).

The scalar brute force below (``dup``, ``frac``, ``comm_tuples``,
``server_load``, ``_vectors`` and ``brute_force``) is the reference the
vectorized solver is checked against; other test modules import ``dup``
and ``server_load`` from here.
"""
import math
from typing import Iterable, Mapping

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hcube.shares import (
    Shares,
    derive_memory,
    optimize_shares,
    share_vectors,
)


def dup(rel_attrs: Iterable[str], p: Mapping[str, int]) -> int:
    """Number of servers each tuple of a relation is replicated to."""
    rel = set(rel_attrs)
    return math.prod(v for a, v in p.items() if a not in rel)


def frac(rel_attrs: Iterable[str], p: Mapping[str, int]) -> float:
    """Expected fraction of a relation landing on one server."""
    rel = set(rel_attrs)
    return 1.0 / math.prod(v for a, v in p.items() if a in rel)


def comm_tuples(relations, p: Mapping[str, int]) -> int:
    """Total tuples shuffled: Σ |R| · dup(R, p), added left to right."""
    total = 0
    for attrs, size in relations:
        total += size * dup(attrs, p)
    return total


def server_load(relations, p: Mapping[str, int]) -> float:
    """Expected tuples per server: Σ |R| · frac(R, p), added left to
    right."""
    total = 0
    for attrs, size in relations:
        total += size * frac(attrs, p)
    return total


def _vectors(attrs, max_product: int):
    """All share vectors with each p_A ≥ 1 and ∏ p_A ≤ max_product,
    depth first (lexicographic order)."""

    def rec(i: int, remaining: int, cur: dict[str, int]):
        if i == len(attrs):
            yield dict(cur)
            return
        for v in range(1, remaining + 1):
            cur[attrs[i]] = v
            yield from rec(i + 1, remaining // v, cur)
        cur.pop(attrs[i], None)

    yield from rec(0, max_product, {})


def brute_force(attrs, relations, n_servers, memory_tuples=None):
    """Eq. (3) one vector at a time: the least communication among the
    vectors within ``memory_tuples``, ties to lower load, then more
    servers, then the first enumerated; with none feasible, the first
    vector of least load, flagged infeasible. Returns the tuple
    ``(p, n_servers, comm, load, feasible)``."""
    best = best_infeasible = None
    for p in _vectors(list(attrs), n_servers):
        c, load = comm_tuples(relations, p), server_load(relations, p)
        cand = (p, math.prod(p.values()), c, load)
        if memory_tuples is None or load <= memory_tuples:
            if best is None or (c, load, -cand[1]) < (
                best[2], best[3], -best[1]
            ):
                best = cand
        if best_infeasible is None or load < best_infeasible[3]:
            best_infeasible = cand
    if best is not None:
        return (*best, True)
    return (*best_infeasible, False)


def _as_tuple(sh: Shares):
    return (sh.p, sh.n_servers, sh.comm, sh.load, sh.feasible)

ATTRS = ("a", "b", "c")
TRIANGLE = [
    (("a", "b"), 100),
    (("b", "c"), 100),
    (("a", "c"), 100),
]


class TestPrimitives:
    def test_dup(self):
        p = {"a": 2, "b": 3, "c": 4}
        assert dup(("a", "b"), p) == 4
        assert dup(("a", "b", "c"), p) == 1
        assert dup((), p) == 24

    def test_frac(self):
        p = {"a": 2, "b": 3, "c": 4}
        assert frac(("a", "b"), p) == pytest.approx(1 / 6)
        assert frac(("a", "b", "c"), p) == pytest.approx(1 / 24)

    def test_comm_tuples(self):
        p = {"a": 2, "b": 2, "c": 1}
        # each binary relation is duplicated by the share of its free attr
        assert comm_tuples(TRIANGLE, p) == 100 * 1 + 100 * 2 + 100 * 2

    def test_server_load(self):
        p = {"a": 2, "b": 2, "c": 1}
        assert server_load(TRIANGLE, p) == pytest.approx(
            100 / 4 + 100 / 2 + 100 / 2
        )

    def test_vectors_enumeration(self):
        """The solver's cached matrix holds the brute force's vectors, in
        its order, and cannot be written to."""
        vecs = share_vectors(2, 4)
        assert vecs.tolist() == [
            [1, 1], [1, 2], [1, 3], [1, 4], [2, 1], [2, 2], [3, 1], [4, 1],
        ]
        assert not vecs.flags.writeable
        assert share_vectors(2, 4) is vecs
        for n_attrs, P in ((0, 5), (1, 1), (3, 16), (5, 64)):
            attrs = "abcde"[:n_attrs]
            assert share_vectors(n_attrs, P).tolist() == [
                [p[a] for a in attrs] for p in _vectors(attrs, P)
            ]


class TestOptimizeShares:
    def test_no_memory_constraint_degenerates_to_ones(self):
        """Without M the comm optimum is p = 1 (no duplication at all) —
        the degenerate single-server plan, which is why the memory bound
        is what forces genuine partitioning."""
        sh = optimize_shares(ATTRS, TRIANGLE, 8, memory_tuples=None)
        assert all(v == 1 for v in sh.p.values())
        assert sh.comm == 300

    def test_memory_forces_partitioning(self):
        sh = optimize_shares(ATTRS, TRIANGLE, 8, memory_tuples=150)
        assert sh.feasible
        assert sh.load <= 150
        assert math.prod(sh.p.values()) > 1

    def test_triangle_symmetric_shares(self):
        """With a tight budget the classic triangle optimum spreads shares
        over the three attributes (e.g. 2×2×2 at P=8)."""
        sh = optimize_shares(ATTRS, TRIANGLE, 8, memory_tuples=80)
        assert sh.feasible
        assert sorted(sh.p.values()) == [2, 2, 2]

    def test_infeasible_falls_back_to_min_load(self):
        sh = optimize_shares(ATTRS, TRIANGLE, 4, memory_tuples=1)
        assert not sh.feasible
        # min load at P<=4 for the triangle: best effort split
        assert sh.load == min(
            server_load(TRIANGLE, p) for p in _vectors(list(ATTRS), 4)
        )

    def test_skewed_relation_sizes(self):
        """A big relation should not be the duplicated one."""
        rels = [(("a", "b"), 1000), (("b", "c"), 10)]
        sh = optimize_shares(("a", "b", "c"), rels, 4, memory_tuples=600)
        # duplicating the small relation (share on a) is cheaper than
        # duplicating the big one (share on c)
        assert sh.p["c"] == 1
        assert sh.comm < 1000 + 10 * 4

    def test_unknown_attr_rejected(self):
        with pytest.raises(ValueError):
            optimize_shares(("a",), [(("a", "z"), 10)], 4)

    def test_result_type_and_product_bound(self):
        sh = optimize_shares(ATTRS, TRIANGLE, 6, memory_tuples=200)
        assert isinstance(sh, Shares)
        assert math.prod(sh.p.values()) <= 6


#: a random spec: 1–5 attributes, 1–6 relations over them, the share
#: budget and a memory bound (None, a tight one, or one far above)
ATTR_NAMES = "abcde"


@st.composite
def specs(draw):
    n_attrs = draw(st.integers(1, 5))
    attrs = ATTR_NAMES[:n_attrs]
    rels = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from(attrs), min_size=1, max_size=3,
                    unique=True,
                ).map(tuple),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    n_servers = draw(st.sampled_from([1, 4, 8, 16, 32, 64]))
    memory = draw(st.sampled_from([None, 10, 1e3, 1e4, 2e5]))
    return attrs, rels, n_servers, memory


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(specs())
def test_solver_equals_brute_force(spec):
    """The vectorized solver returns the brute force's exact tuple
    ``(p, n_servers, comm, load, feasible)``, floats bit for bit, and
    ``derive_memory`` is twice its least load."""
    attrs, rels, n_servers, memory = spec
    assert _as_tuple(
        optimize_shares(attrs, rels, n_servers, memory)
    ) == brute_force(attrs, rels, n_servers, memory)
    assert derive_memory(attrs, rels, n_servers) == 2.0 * min(
        server_load(rels, p) for p in _vectors(attrs, n_servers)
    )


@pytest.mark.parametrize(
    "n_servers,memory",
    [(8, None), (8, 80), (8, 150), (16, 80), (4, 1), (64, 5)],
)
def test_triangle_ties_and_bounds_equal_brute_force(n_servers, memory):
    """The symmetric triangle ties many vectors on comm and load: the
    solver keeps the brute force's pick, without a bound, under a tight
    one and under an infeasible one."""
    got = optimize_shares(ATTRS, TRIANGLE, n_servers, memory)
    assert _as_tuple(got) == brute_force(ATTRS, TRIANGLE, n_servers, memory)
    assert got.feasible == (memory not in (1, 5))


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 500), min_size=3, max_size=3),
    P=st.integers(1, 12),
)
def test_optimum_beats_all_vectors(sizes, P):
    """The returned vector is truly optimal among the enumeration."""
    rels = [(("a", "b"), sizes[0]), (("b", "c"), sizes[1]), (("a", "c"), sizes[2])]
    M = sum(sizes)  # always feasible at p=1
    sh = optimize_shares(ATTRS, rels, P, memory_tuples=M)
    assert sh.feasible
    for p in _vectors(list(ATTRS), P):
        if server_load(rels, p) <= M:
            assert sh.comm <= comm_tuples(rels, p)
