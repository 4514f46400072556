#!/usr/bin/env python
"""Fig. 12-style comparison job: ADJ vs HCubeJ vs HCubeJ+Cache vs
SparkSQL vs BigJoin on a chosen dataset and query set.

    spark-submit jobs/fig12_methods.py --dataset AS --queries Q1,Q2
"""
import argparse
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _session import get_spark  # noqa: E402

from repro.baselines.bigjoin import bigjoin_count  # noqa: E402
from repro.baselines.hcubej import run_hcubej  # noqa: E402
from repro.baselines.sparksql import sparksql_count  # noqa: E402
from repro.core.adj import ADJConfig, run_adj  # noqa: E402
from repro.core.cost import default_cost_model  # noqa: E402
from repro.core.query import get_query  # noqa: E402
from repro.synth_data import GRAPH_SCALE, dataset_edges  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="AS")
    ap.add_argument("--queries", default="Q1,Q2")
    ap.add_argument("--scale", type=float, default=GRAPH_SCALE)
    ap.add_argument("--budget", type=float, default=120.0)
    args = ap.parse_args(argv)
    spark = get_spark(f"fig12-{args.dataset}")
    try:
        edges = dataset_edges(spark, args.dataset, scale=args.scale).persist()
        edges.count()
        cm = default_cost_model(spark)
        for qname in args.queries.split(","):
            q = get_query(qname)
            rep = run_adj(
                spark, q, edges, ADJConfig(budget_seconds=args.budget),
                cost_model=cm,
            )
            print(f"{qname} ADJ           {rep.total:8.2f}s count={rep.result_count}")
            for cache in (0, 100_000):
                name = "HCubeJ+Cache" if cache else "HCubeJ"
                r = run_hcubej(
                    spark, q, edges,
                    ADJConfig(cache_entries=cache, budget_seconds=args.budget),
                )
                if r.timed_out:
                    print(f"{qname} {name:<13} TIMEOUT>{args.budget:.0f}s")
                else:
                    print(f"{qname} {name:<13} {r.total:8.2f}s count={r.result_count}")
            for name, fn in (
                ("SparkSQL", sparksql_count),
                ("BigJoin", bigjoin_count),
            ):
                t0 = time.monotonic()
                try:
                    cnt = fn(spark, q, edges)
                    print(
                        f"{qname} {name:<13} {time.monotonic() - t0:8.2f}s "
                        f"count={cnt}"
                    )
                except Exception as e:  # noqa: BLE001 - report and continue
                    print(f"{qname} {name:<13} FAILED ({type(e).__name__})")
        edges.unpersist()
    finally:
        spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
