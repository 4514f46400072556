"""Spark-free micro-benchmark of the Leapfrog kernel and the sampler on the
LJ stand-in at scale 1e-4 (seed 14, 6,546 edges), query Q4.

* Leapfrog extensions/s for one count-only join in the attribute orders
  b-e-d-c-a and a-b-c-d-e (extensions = Σ|T^i|, the β statistic).
* Sampler values/s on the whole query: the count-only Leapfrog call of
  ``estimate_cardinality_local`` with its 60 sampled values (the
  optimizer's ``sample_k``) pinned at level 0, timed on its own (the trie
  builds and the sampling of ``val(b)`` are excluded).

Each figure is the median of 3 rounds after one warm-up round.

Run: pytest benchmarks/bench_leapfrog_kernel.py --benchmark-only
"""
import functools

import numpy as np
import pytest

from benchmarks.common import write_result
from repro.core.query import get_query
from repro.core.sampling import estimate_cardinality_local
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import trie_for_order
from repro.synth_data import PAPER_TABLE1, graph_edges_pdf

ROUNDS = 3
LINES: list[str] = []


@pytest.fixture(scope="module")
def lj_q4():
    pdf = graph_edges_pdf(
        n_edges=int(PAPER_TABLE1["LJ"][0] * 1e-4), seed=14
    )
    return get_query("Q4"), pdf[["src", "dst"]].to_numpy()


def _record(line: str) -> None:
    LINES.append(line)
    print("\n" + line)
    write_result("leapfrog_kernel", "\n".join(LINES))


@pytest.mark.parametrize("order", ["bedca", "abcde"])
def test_leapfrog_extensions_per_s(benchmark, lj_q4, order):
    q, rows = lj_q4
    order = tuple(order)
    tries = [trie_for_order(rows, r.attrs, order) for r in q.relations]
    res = benchmark.pedantic(
        lambda: leapfrog(tries, order, emit=False),
        rounds=ROUNDS,
        warmup_rounds=1,
    )
    secs = benchmark.stats.stats.median
    _record(
        f"[leapfrog] LJx1e-4 Q4 order {'-'.join(order)}: "
        f"{res.extensions / secs:,.0f} extensions/s "
        f"({res.extensions:,} in {secs:.2f} s, count {res.count:,})"
    )


def test_sampler_values_per_s(benchmark, lj_q4):
    q, rows = lj_q4
    order = tuple("bedca")
    est = estimate_cardinality_local(
        {r.name: (r.attrs, rows) for r in q.relations}, order, k=60, seed=0
    )
    # the estimator's tries and sample: every relation in ``order``, and
    # k of val(b), the level-0 values shared by the relations starting
    # with b, drawn by the same seeded generator
    tries = [trie_for_order(rows, r.attrs, order) for r in q.relations]
    vals = functools.reduce(
        np.intersect1d, [t.values[0] for t in tries if t.attrs[0] == "b"]
    )
    sample = np.random.default_rng(0).choice(vals, size=60, replace=False)
    res = benchmark.pedantic(
        lambda: leapfrog(tries, order, emit=False, pinned=sample),
        rounds=ROUNDS,
        warmup_rounds=1,
    )
    assert len(vals) * res.value_counts.mean() == est.estimate
    secs = benchmark.stats.stats.median
    _record(
        f"[sampler] LJx1e-4 Q4 order {'-'.join(order)}, k={est.k}: "
        f"{est.k / secs:,.0f} values/s "
        f"(estimate {est.estimate:,.0f}, |val(b)| {est.val_count})"
    )
