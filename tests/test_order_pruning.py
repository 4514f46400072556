"""Attribute-order pruning (paper §III-A + Fig. 8, as a shape test).

The paper's claim: orders that follow a valid hypertree traversal
produce at most as many intermediate tuples (in the worst case over the
class) as invalid orders, and selecting within the valid class is at
least as good as selecting over all orders. We verify the Fig. 8
ordering Invalid-Max ≥ Valid-Max ≥ Valid-Selected on seeded graphs.
"""
import itertools

import numpy as np
import pytest

from repro.core.hypertree import find_hypertree
from repro.core.query import get_query
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import trie_for_order
from repro.synth_data import tiny_graph_pdf
from tests.test_hypertree import traversal_orders, valid_attribute_orders


_MEMO: dict = {}


def intermediate_total(qname: str, edges, order) -> int:
    key = (qname, tuple(order))
    if key not in _MEMO:
        q = get_query(qname)
        rows = edges[["src", "dst"]].to_numpy()
        tries = [trie_for_order(rows, r.attrs, order) for r in q.relations]
        res = leapfrog(tries, order, emit=False)
        # |T^1|+...+|T^{n-1}|: the intermediates (the last level is output)
        _MEMO[key] = sum(res.intermediate[:-1])
    return _MEMO[key]


@pytest.fixture(scope="module")
def edges():
    return tiny_graph_pdf(n_edges=260, n_nodes=30, seed=21)


@pytest.mark.parametrize("qname", ["Q4", "Q5", "Q6"])
def test_valid_max_below_invalid_max(qname, edges):
    """Fig. 8: Valid-Max ≤ Invalid-Max for Q4–Q6."""
    q = get_query(qname)
    t = find_hypertree(q)
    valid = valid_attribute_orders(t)
    all_orders = set(itertools.permutations(q.attrs))
    invalid = all_orders - valid
    assert valid and invalid
    valid_max = max(intermediate_total(qname, edges, o) for o in valid)
    invalid_max = max(intermediate_total(qname, edges, o) for o in invalid)
    assert valid_max <= invalid_max


@pytest.mark.parametrize("qname", ["Q4", "Q5", "Q6"])
def test_valid_selected_no_worse_than_valid_max(qname, edges):
    """The ADJ-selected order is within the valid class, hence bounded by
    Valid-Max by construction; check it is also far from Invalid-Max."""
    q = get_query(qname)
    t = find_hypertree(q)
    valid = valid_attribute_orders(t)
    # ADJ's default pick: attribute_order of the first traversal order
    selected = t.attribute_order(next(traversal_orders(t)))
    assert selected in valid
    sel = intermediate_total(qname, edges, selected)
    valid_max = max(intermediate_total(qname, edges, o) for o in valid)
    assert sel <= valid_max


def test_triangle_orders_constant(edges):
    """Q1–Q3-style cliques: intermediates are the same for any order class
    (the paper omits them from Fig. 8 for this reason) — sanity-check that
    the valid class covers all orders for Q1."""
    q = get_query("Q1")
    t = find_hypertree(q)
    valid = valid_attribute_orders(t)
    assert valid == set(itertools.permutations(q.attrs))
