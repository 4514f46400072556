"""Fig. 9-style benchmark: HCube implementation variants Push and Pull
(§V) on query Q2, measuring the communication and computation phases.

One untimed join first takes the session's cold start; then the modes
alternate, the first mode switching each round, and each phase is the
median over ``ROUNDS`` calls. Every relation is the one persisted edge
table, read by position, as ``run_hcubej`` passes it.

Run: pytest benchmarks/bench_hcube_modes.py --benchmark-only
"""
import statistics

from benchmarks.common import (
    bench_scale,
    provenance,
    warm_alternating,
    write_result,
)
from repro.core.executor import one_round_join
from repro.core.query import get_query
from repro.hcube.shuffle import MODES
from repro.synth_data import dataset_pdf

ROUNDS = 3
SHARES = {"a": 2, "b": 2, "c": 2, "d": 2}
ORDER = ("a", "b", "c", "d")


def test_hcube_modes(spark, benchmark):
    scale = bench_scale(1e-3)
    q = get_query("Q2")
    edges = spark.createDataFrame(dataset_pdf("WB", scale=scale)).persist()
    n_edges = edges.count()
    rels = {r.name: edges for r in q.relations}
    schemas = {r.name: r.attrs for r in q.relations}

    def run(mode):
        return one_round_join(spark, rels, schemas, ORDER, SHARES, mode=mode)

    try:
        results = benchmark.pedantic(
            warm_alternating, (run, MODES, ROUNDS), rounds=1, iterations=1
        )
    finally:
        edges.unpersist()
    lines = [
        f"# WB x{scale:g} ({n_edges} edges) Q2, shares "
        + " ".join(f"{a}:{p}" for a, p in SHARES.items())
        + f"; median of {ROUNDS} alternating calls after one untimed call;"
        f" {provenance(spark)}"
    ]
    for mode, calls in results.items():
        comm = statistics.median(t.communication for _, t in calls)
        comp = statistics.median(t.computation for _, t in calls)
        lines.append(
            f"[Fig9] mode={mode:<6} comm={comm:.2f}s comp={comp:.2f}s "
            f"count={calls[0][0]}"
        )
    print("\n" + "\n".join(lines))
    write_result("fig9_hcube_modes", "\n".join(lines))
    # every call of every mode must agree on the result
    assert len({c for calls in results.values() for c, _ in calls}) == 1
