"""Unit tests for the GHD search (paper §III-A).

The valid traversal and attribute orders of §III-A are enumerated here,
as an oracle: the optimizer builds one order by Alg. 2's greedy rounds,
and the tests check it, and the Fig. 8 shape, against the whole class.
"""
import itertools
from typing import Iterator, Sequence

import pytest

from repro.core.hypertree import (
    Hypertree,
    candidate_hypertrees,
    find_hypertree,
)
from repro.core.query import JoinQuery, Relation, get_query, q1, q3, q4


def traversal_orders(t: Hypertree) -> Iterator[tuple[int, ...]]:
    """All valid bag traversal orders of ``t``: every prefix induces a
    connected subtree (equivalently, Alg. 2 removes only bags whose
    removal keeps the untraversed part connected)."""

    def rec(prefix: list[int], remaining: set[int]):
        if not remaining:
            yield tuple(prefix)
            return
        for i in sorted(remaining):
            if not prefix or any(i in t.neighbors(p) for p in prefix):
                yield from rec(prefix + [i], remaining - {i})

    return rec([], set(range(len(t.bags))))


def valid_attribute_orders(t: Hypertree) -> set[tuple[str, ...]]:
    """Every attribute order consistent with some valid bag traversal
    (bag-prefix attributes before later bags' new attributes; new
    attributes within a bag may permute freely)."""
    return {
        tuple(a for grp in combo for a in grp)
        for order in traversal_orders(t)
        for combo in itertools.product(
            *(itertools.permutations(new) for new in t.new_attrs(order))
        )
    }


def is_valid_attribute_order(t: Hypertree, order: Sequence[str]) -> bool:
    """Whether ``order`` follows some valid bag traversal order of ``t``."""
    return tuple(order) in valid_attribute_orders(t)


def paper_example_query() -> JoinQuery:
    """Eq. (2): R1(a,b,c) ⋈ R2(a,d) ⋈ R3(c,d) ⋈ R4(b,e) ⋈ R5(c,e)."""
    return JoinQuery(
        "Qpaper",
        [
            Relation("R1", ("a", "b", "c")),
            Relation("R2", ("a", "d")),
            Relation("R3", ("c", "d")),
            Relation("R4", ("b", "e")),
            Relation("R5", ("c", "e")),
        ],
    )


class TestFindHypertree:
    def test_paper_example_matches_fig5(self):
        """The optimal hypertree of Eq. (2) is Fig. 5: bags {a,b,c} (R1),
        {a,c,d} (R2⋈R3), {b,c,e} (R4⋈R5)."""
        t = find_hypertree(paper_example_query())
        bag_map = {
            frozenset(b.attrs): sorted(r.name for r in b.relations)
            for b in t.bags
        }
        assert bag_map == {
            frozenset("abc"): ["R1"],
            frozenset("acd"): ["R2", "R3"],
            frozenset("bce"): ["R4", "R5"],
        }
        assert t.fhw == pytest.approx(1.5)

    def test_every_relation_assigned_exactly_once(self):
        for name in ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]:
            q = get_query(name)
            t = find_hypertree(q)
            assigned = [r.name for b in t.bags for r in b.relations]
            assert sorted(assigned) == sorted(r.name for r in q.relations)

    def test_bag_attrs_cover_relations(self):
        for name in ["Q2", "Q4", "Q5", "Q6"]:
            t = find_hypertree(get_query(name))
            for b in t.bags:
                for r in b.relations:
                    assert r.attr_set <= b.attr_set

    def test_tree_has_right_edge_count(self):
        for name in ["Q1", "Q2", "Q4", "Q5", "Q6"]:
            t = find_hypertree(get_query(name))
            assert len(t.tree_edges) == len(t.bags) - 1

    def test_running_intersection(self):
        for name in ["Q2", "Q4", "Q5", "Q6"]:
            t = find_hypertree(get_query(name))
            for a in t.query.attrs:
                holders = {
                    b.index for b in t.bags if a in b.attr_set
                }
                assert t.is_connected_subset(holders), (name, a)

    def test_triangle_single_bag(self):
        """Q1 has no non-trivial decomposition (it's a single cycle with
        fhw 1.5 everywhere); the result must cover all three relations."""
        t = find_hypertree(q1())
        assert t.fhw == pytest.approx(1.5)
        total = sum(len(b.relations) for b in t.bags)
        assert total == 3

    def test_clique_fhw(self):
        """Q3 (5-clique) has fhw 5/2 whatever the decomposition."""
        t = find_hypertree(q3())
        assert t.fhw == pytest.approx(2.5)

    def test_q4_decomposes(self):
        """Q4 (5-cycle + chord b-e) splits into cyclic pieces smaller than
        the whole query: fhw strictly below the C5 bound of 2.5."""
        t = find_hypertree(q4())
        assert t.fhw < 2.5
        assert len(t.bags) >= 2

    def test_candidates_nonempty_and_include_single_bag(self):
        cands = candidate_hypertrees(q4())
        assert any(len(t.bags) == 1 for t in cands)
        assert all(isinstance(t, Hypertree) for t in cands)

    def test_cached_lookup_is_stable(self):
        a = find_hypertree(get_query("Q5"))
        b = find_hypertree(get_query("Q5"))
        assert a is b  # memoized by query name and relations


class TestTraversalOrders:
    def test_prefix_connected(self):
        t = find_hypertree(paper_example_query())
        for order in traversal_orders(t):
            for i in range(1, len(order) + 1):
                assert t.is_connected_subset(set(order[:i]))

    def test_all_bags_once(self):
        t = find_hypertree(get_query("Q4"))
        for order in traversal_orders(t):
            assert sorted(order) == list(range(len(t.bags)))

    def test_attribute_order_is_permutation(self):
        t = find_hypertree(get_query("Q5"))
        for order in traversal_orders(t):
            ao = t.attribute_order(order)
            assert sorted(ao) == sorted(t.query.attrs)

    def test_paper_valid_and_invalid_orders(self):
        """§III-A example: for Fig. 5 with traversal v_a ≺ v_b ≺ v_c,
        a≺b≺c≺d≺e is valid and a≺b≺e≺d≺c is invalid."""
        t = find_hypertree(paper_example_query())
        valid = valid_attribute_orders(t)
        assert ("a", "b", "c", "d", "e") in valid
        assert ("a", "b", "e", "d", "c") not in valid

    def test_is_valid_attribute_order(self):
        t = find_hypertree(paper_example_query())
        assert is_valid_attribute_order(t, ("a", "b", "c", "d", "e"))
        assert not is_valid_attribute_order(t, ("a", "b", "e", "d", "c"))

    def test_new_attrs_partition(self):
        t = find_hypertree(get_query("Q6"))
        for order in traversal_orders(t):
            news = t.new_attrs(order)
            flat = [a for grp in news for a in grp]
            assert sorted(flat) == sorted(t.query.attrs)
