"""Spark-free micro-benchmark of the Leapfrog kernel and the sampler on the
LJ stand-in at scale 1e-4 (seed 14, 6,546 edges), query Q4.

* Leapfrog extensions/s for one count-only join in the attribute orders
  b-e-d-c-a and a-b-c-d-e (extensions = Σ|T^i|, the β statistic).
* Sampler values/s on the whole query: the count-only Leapfrog call of
  ``estimate_cardinality_local`` with its 60 sampled values (the
  optimizer's ``sample_k``) pinned at level 0, timed on its own (the trie
  builds and the sampling of ``val(b)`` are excluded).
* One server of the final round under shares b:2 e:2 and order
  b-c-d-e-a (the plan ``run_adj`` picks on this graph), the one that
  receives the most tuples: ``server_join`` on its raw relations, and
  with bag {a,b,e} joined on the server first. HCube's routing
  (``x mod p_A``) is replayed by ``tests.test_executor.hcube_fragments``,
  and the trie builds are timed too.

Each figure is the median of 3 rounds after one warm-up round.

Run: pytest benchmarks/bench_leapfrog_kernel.py --benchmark-only
"""
import functools

import numpy as np
import pytest

from benchmarks.common import write_result
from repro.core.executor import server_join
from repro.core.hypertree import find_hypertree
from repro.core.optimizer import bag_join
from repro.core.query import get_query
from repro.core.sampling import estimate_cardinality_local
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import trie_for_order
from repro.synth_data import PAPER_TABLE1, graph_edges_pdf
from tests.test_executor import hcube_fragments

ROUNDS = 3
LINES: list[str] = []
#: seconds of one server's join per variant, for the ratio line
SERVER_S: dict[str, float] = {}


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


@pytest.mark.parametrize("variant", ["raw", "server"])
def test_server_join_bag_on_server(benchmark, lj_q4, variant):
    q, rows = lj_q4
    order = tuple("bcdea")
    shares = {a: 1 for a in order} | {"b": 2, "e": 2}
    schemas = {r.name: r.attrs for r in q.relations}
    frag = max(
        hcube_fragments(rows, schemas, order, shares),
        key=lambda f: sum(map(len, f.values())),
    )
    bag = find_hypertree(q).bags[0]
    rels, bag_order = bag_join(q, bag)
    bags = ((tuple(r.name for r in rels), bag_order),) * (variant == "server")
    res, _, bag_s, _ = benchmark.pedantic(
        lambda: server_join(frag, schemas, order, bags),
        rounds=ROUNDS,
        warmup_rounds=1,
    )
    secs = SERVER_S[variant] = benchmark.stats.stats.median
    what = (
        f"bag {{{','.join(bag.attrs)}}} joined on the server "
        f"(bag {bag_s:.3f} s)"
        if bags else "raw relations"
    )
    ratio = (
        f", {SERVER_S['raw'] / secs:.1f}x faster than raw"
        if bags and "raw" in SERVER_S else ""
    )
    _record(
        f"[server] LJx1e-4 Q4 busiest server of b:2 e:2, order "
        f"{'-'.join(order)}, {sum(map(len, frag.values())):,} tuples, "
        f"{what}: {secs:.3f} s, count {res.count:,}{ratio}"
    )
