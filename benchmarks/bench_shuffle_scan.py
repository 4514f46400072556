"""Per-layer benchmark of the HCube shuffle (§II-A, §V): one scan per
input against one scan per relation.

Times warm ``hcube_shuffle(...).count()`` on Q4 over the LJ stand-in at
1e-3 (persisted), in co-opt's order b-c-d-e-a, for Pull and Push under
two share vectors: b:2 e:2 (the Tables plans' 4 servers) and
b:2 c:2 d:2 e:2 (16 servers). Each case runs through the same code on
two inputs: ``shared`` passes the edge table itself for all six
relations (one scan), ``per-relation`` passes ``relation_dfs``' six
renamed copies (six scans and a union). One untimed call comes first;
then the cases alternate, the first case rotating each round, and each
line gives the median of ``ROUNDS`` calls.

Run: pytest benchmarks/bench_shuffle_scan.py --benchmark-only
"""
import itertools
import statistics
import time

from benchmarks.common import (
    bench_scale,
    provenance,
    warm_alternating,
    write_result,
)
from repro.core.adj import relation_dfs
from repro.core.query import get_query
from repro.hcube.shuffle import MODES, hcube_shuffle
from repro.synth_data import dataset_pdf

ROUNDS = 5
ORDER = ("b", "c", "d", "e", "a")
SHARES = {
    "b:2 e:2": {"b": 2, "e": 2},
    "b:2 c:2 d:2 e:2": {"b": 2, "c": 2, "d": 2, "e": 2},
}
INPUTS = ("shared", "per-relation")


def test_shuffle_scan(spark, benchmark):
    scale = bench_scale(1e-3)
    q = get_query("Q4")
    edges = spark.createDataFrame(dataset_pdf("LJ", scale=scale)).persist()
    n_edges = edges.count()
    rels = {
        "shared": {r.name: edges for r in q.relations},
        "per-relation": relation_dfs(edges, q),
    }
    schemas = {r.name: r.attrs for r in q.relations}

    def run(case):
        shares, mode, source = case
        t0 = time.monotonic()
        rows = hcube_shuffle(
            rels[source], schemas, ORDER, SHARES[shares], mode=mode
        ).count()
        return time.monotonic() - t0, rows

    cases = tuple(itertools.product(SHARES, MODES, INPUTS))
    try:
        results = benchmark.pedantic(
            warm_alternating, (run, cases, ROUNDS), rounds=1, iterations=1
        )
    finally:
        edges.unpersist()
    lines = [
        f"# LJ x{scale:g} ({n_edges} edges) Q4, order {'-'.join(ORDER)};"
        f" median of {ROUNDS} alternating calls after one untimed call;"
        f" {provenance(spark)}"
    ]
    for shares, mode in itertools.product(SHARES, MODES):
        med = {
            src: statistics.median(s for s, _ in results[shares, mode, src])
            for src in INPUTS
        }
        counts = {
            n for src in INPUTS for _, n in results[shares, mode, src]
        }
        assert len(counts) == 1, f"{shares} {mode}: inputs disagree {counts}"
        lines.append(
            f"[shuffle] {shares:<16}{mode:<5} shared {med['shared']:.2f} s"
            f"  per-relation {med['per-relation']:.2f} s"
            f"  ({med['per-relation'] / med['shared']:.1f}x, "
            f"{counts.pop()} rows)"
        )
    print("\n" + "\n".join(lines))
    write_result("shuffle_scan", "\n".join(lines))
