"""Unit tests for the nested CSR trie."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leapfrog.trie import Trie, trie_for_order


def _child_range(t: Trie, level: int, lo: int, hi: int, v: int):
    """Child node range of value ``v`` in node range ``[lo, hi)`` at
    ``level``, or None where ``v`` is not there."""
    node = int(t.find(level, lo, hi, v))
    if node < 0:
        return None
    return int(t.child_start[level][node]), int(t.child_end[level][node])


def _contains_prefix(t: Trie, prefix) -> bool:
    """Whether some row of ``t`` starts with ``prefix``."""
    rng = t.root_range()
    for level, v in enumerate(prefix):
        rng = _child_range(t, level, *rng, v)
        if rng is None:
            return False
    return True


class TestTrieBasics:
    def test_single_column(self):
        t = Trie(np.array([[3], [1], [2], [1]]), ("a",))
        assert t.n_rows == 3  # deduped
        lo, hi = t.root_range()
        assert t.values[0][lo:hi].tolist() == [1, 2, 3]

    def test_two_columns_sorted_and_deduped(self):
        rows = np.array([[2, 1], [1, 2], [1, 1], [1, 2]])
        t = Trie(rows, ("a", "b"))
        assert t.n_rows == 3
        assert t.rows.tolist() == [[1, 1], [1, 2], [2, 1]]

    def test_descend(self):
        rows = np.array([[1, 10], [1, 20], [2, 30]])
        t = Trie(rows, ("a", "b"))
        lo, hi = t.root_range()
        assert t.values[0][lo:hi].tolist() == [1, 2]
        clo, chi = _child_range(t, 0, lo, hi, 1)
        assert t.values[1][clo:chi].tolist() == [10, 20]
        clo, chi = _child_range(t, 0, lo, hi, 2)
        assert t.values[1][clo:chi].tolist() == [30]
        assert _child_range(t, 0, lo, hi, 3) is None

    def test_three_levels(self):
        rows = np.array(
            [[1, 1, 1], [1, 1, 2], [1, 2, 1], [2, 1, 5]]
        )
        t = Trie(rows, ("a", "b", "c"))
        lo, hi = t.root_range()
        l1 = _child_range(t, 0, lo, hi, 1)
        assert t.values[1][slice(*l1)].tolist() == [1, 2]
        l2 = _child_range(t, 1, *l1, 1)
        assert t.values[2][slice(*l2)].tolist() == [1, 2]

    def test_empty_relation(self):
        t = Trie(np.empty((0, 2)), ("a", "b"))
        assert t.n_rows == 0
        assert t.root_range() == (0, 0)
        assert t.values[0].tolist() == []

    def test_contains_prefix(self):
        rows = np.array([[1, 10], [2, 30]])
        t = Trie(rows, ("a", "b"))
        assert _contains_prefix(t, [1])
        assert _contains_prefix(t, [1, 10])
        assert not _contains_prefix(t, [1, 30])
        assert not _contains_prefix(t, [3])

    def test_find_batch(self):
        """One call finds many (node range, value) pairs; -1 where absent."""
        rows = np.array([[1, 10], [1, 20], [2, 10], [2, 30]])
        t = Trie(rows, ("a", "b"))
        assert t.find(0, 0, 2, np.array([0, 1, 2, 3])).tolist() == [-1, 0, 1, -1]
        lo = t.child_start[0][[0, 0, 1, 1, 1]]
        hi = t.child_end[0][[0, 0, 1, 1, 1]]
        got = t.find(1, lo, hi, np.array([20, 30, 10, 20, 30]))
        assert got.tolist() == [1, -1, 2, -1, 3]
        assert Trie(np.empty((0, 2)), ("a", "b")).find(0, 0, 0, [1]).tolist() == [-1]

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            Trie(np.zeros((2, 3)), ("a", "b"))


class TestTrieForOrder:
    def test_columns_permuted(self):
        rows = np.array([[10, 1], [20, 2]])  # (b, a) pairs
        t = trie_for_order(rows, ("b", "a"), order=("a", "b", "c"))
        assert t.attrs == ("a", "b")
        assert t.rows.tolist() == [[1, 10], [2, 20]]

    def test_missing_attr_rejected(self):
        with pytest.raises(ValueError):
            trie_for_order(np.zeros((1, 2)), ("a", "z"), order=("a", "b"))

    def test_identity_when_aligned(self):
        rows = np.array([[1, 2], [3, 4]])
        t = trie_for_order(rows, ("a", "b"), order=("a", "b"))
        assert t.rows.tolist() == [[1, 2], [3, 4]]


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
        min_size=0,
        max_size=60,
    )
)
def test_trie_roundtrip_property(rows):
    """Every distinct input row is reachable by descending the trie, and
    the trie holds exactly the distinct rows."""
    arr = (
        np.array(rows, dtype=np.int64)
        if rows
        else np.empty((0, 3), dtype=np.int64)
    )
    t = Trie(arr, ("a", "b", "c"))
    distinct = {tuple(r) for r in rows}
    assert t.n_rows == len(distinct)
    for r in distinct:
        assert _contains_prefix(t, list(r))
    # candidate counts at root match distinct first values
    lo, hi = t.root_range()
    assert set(t.values[0][lo:hi].tolist()) == {r[0] for r in distinct}
