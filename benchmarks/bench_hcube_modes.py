"""Fig. 9-style benchmark: HCube implementation variants Push and Pull
(§V) on query Q2, measuring the communication and computation phases.

Run: pytest benchmarks/bench_hcube_modes.py --benchmark-only
"""
import pytest

from benchmarks.common import bench_scale
from repro.core.adj import relation_dfs
from repro.core.executor import one_round_join
from repro.core.query import get_query
from repro.hcube.shuffle import MODES
from repro.synth_data import dataset_pdf


@pytest.fixture(scope="module")
def setup(spark):
    pdf = dataset_pdf("WB", scale=bench_scale(1e-3))
    q = get_query("Q2")
    edges = spark.createDataFrame(pdf).persist()
    edges.count()
    rels = relation_dfs(edges, q)
    schemas = {r.name: r.attrs for r in q.relations}
    yield q, rels, schemas
    edges.unpersist()


RESULTS: dict[str, tuple[float, float, int]] = {}


@pytest.mark.parametrize("mode", MODES)
def test_hcube_mode(spark, benchmark, setup, mode):
    q, rels, schemas = setup
    shares = {"a": 2, "b": 2, "c": 2, "d": 2}
    order = ("a", "b", "c", "d")

    def run():
        return one_round_join(
            spark, rels, schemas, order, shares, mode=mode
        )

    cnt, t = benchmark.pedantic(run, rounds=1, iterations=1)
    RESULTS[mode] = (t.communication, t.computation, cnt)
    line = (
        f"[Fig9] mode={mode:<6} comm={t.communication:.2f}s "
        f"comp={t.computation:.2f}s count={cnt}"
    )
    print("\n" + line)
    from benchmarks.common import write_result

    write_result(
        "fig9_hcube_modes",
        "\n".join(
            f"[Fig9] mode={m:<6} comm={c:.2f}s comp={p:.2f}s count={n}"
            for m, (c, p, n) in RESULTS.items()
        ),
    )
    # all modes must agree on the result
    counts = {c for _, _, c in RESULTS.values()}
    assert len(counts) == 1
