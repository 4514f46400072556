"""Computation of a bag joined on each server against raw relations.

Times warm count-mode ``one_round_join`` calls of Q4 over the LJ and OK
stand-ins at 1e-3 (persisted), Pull, in co-opt's order b-c-d-e-a and
under the raw plan's shares: Eq. (3) on the six raw relations with 16
servers and the memory bound ``run_adj`` derives. The same round runs
twice: on the raw relations, and with bag {a,b,e} joined on
every server from the tuples it received (``server_bags``). One untimed
call comes first; then the cases alternate, the first case rotating
each round, and each line gives the median of ``ROUNDS`` calls of the
Communication and Computation phases, the slowest server's bag seconds,
and the count, which must agree.

Run: pytest benchmarks/bench_server_bags.py --benchmark-only
"""
import statistics

import pytest

from benchmarks.common import (
    bench_scale,
    provenance,
    warm_alternating,
    write_result,
)
from repro.core.executor import one_round_join
from repro.core.hypertree import find_hypertree
from repro.core.optimizer import bag_join
from repro.core.query import get_query
from repro.hcube.shares import derive_memory, optimize_shares
from repro.synth_data import dataset_pdf

ROUNDS = 3
N_SERVERS = 16
ORDER = ("b", "c", "d", "e", "a")
LINES: list[str] = []


@pytest.mark.parametrize("dataset", ["LJ", "OK"])
def test_server_bags(spark, benchmark, dataset):
    scale = bench_scale(1e-3)
    q = get_query("Q4")
    edges = spark.createDataFrame(dataset_pdf(dataset, scale=scale))
    edges = edges.persist()
    n_edges = edges.count()
    schemas = {r.name: r.attrs for r in q.relations}
    specs = [(attrs, n_edges) for attrs in schemas.values()]
    shares = optimize_shares(
        q.attrs, specs, N_SERVERS, derive_memory(q.attrs, specs, N_SERVERS)
    ).p
    rels, bag_order = bag_join(q, find_hypertree(q).bags[0])
    cases = {
        "raw": (),
        "bag {a,b,e} on servers": ((tuple(r.name for r in rels), bag_order),),
    }

    def run(case):
        count, t = one_round_join(
            spark,
            dict.fromkeys(schemas, edges),
            schemas,
            ORDER,
            shares,
            server_bags=cases[case],
        )
        bag_s = max(r.bag_s for r in t.servers.values())
        return t.communication, t.computation, bag_s, count

    try:
        results = benchmark.pedantic(
            warm_alternating, (run, tuple(cases), ROUNDS),
            rounds=1, iterations=1,
        )
    finally:
        edges.unpersist()
    counts = {r[3] for runs in results.values() for r in runs}
    assert len(counts) == 1, f"cases disagree: {counts}"
    med = {
        case: [statistics.median(r[i] for r in runs) for i in range(3)]
        for case, runs in results.items()
    }
    shown = " ".join(f"{a}:{p}" for a, p in shares.items() if p > 1)
    lines = [
        f"# {dataset} x{scale:g} ({n_edges} edges) Q4,"
        f" order {'-'.join(ORDER)}, shares {shown}, pull,"
        f" count {counts.pop():,};"
        f" median of {ROUNDS} alternating calls after one untimed call;"
        f" {provenance(spark)}"
    ]
    for case, (comm, comp, bag_s) in med.items():
        lines.append(
            f"[server-bags] {case:<24} Communication {comm:.2f} s"
            f"  Computation {comp:.2f} s  slowest server's bags {bag_s:.2f} s"
        )
    raw, bag = (med[c][1] for c in cases)
    lines.append(
        f"[server-bags] {dataset} Computation {raw / bag:.1f}x lower on-server"
    )
    print("\n" + "\n".join(lines))
    LINES.extend(lines)
    write_result("server_bags", "\n".join(LINES))
