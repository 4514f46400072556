"""Workload table of the ADJ benchmark.

Every workload runs one test-case of the paper (a query over a synthetic
Table I stand-in graph) with ``n_servers=16`` and HCube mode ``pull``.
The graphs are much smaller than the ``GRAPH_SCALE`` stand-ins: a whole
run, Spark start-up and cold call included, has to finish in about a
minute on a 4-core machine (see README.md in this directory).

``PINNED`` holds the expected result count of each workload's default
input (the Table I stand-in seed). Each was computed once by DuckDB from
the SQL that ``reference.query_sql`` writes, never by the code under test;
for any other seed the benchmark asks DuckDB at run time.
"""
from __future__ import annotations

from dataclasses import dataclass

#: the paper's queries, written out again here so the reference SQL does
#: not depend on ``repro.core.query``; ``run.py`` checks the two agree.
QUERY_EDGES: dict[str, tuple[tuple[str, str], ...]] = {
    # 4-cycle a-b-c-d with the chord a-c
    "Q2": (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")),
    # 5-cycle a-b-c-d-e with the chord b-e
    "Q4": (
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
        ("b", "e"),
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "adj" → run_adj, "hcubej" → run_hcubej
    dataset: str  # Table I stand-in whose edge count is scaled
    query: str
    scale: float  # share of the paper's edge count
    default_seed: int  # the Table I stand-in seed of ``dataset``
    count_only: bool = True
    #: untimed calls after the cold first call; the emit path keeps
    #: speeding up over its first calls, ADJ's cold cost is all in the first
    warmup_rounds: int = 0
    #: timed calls made even when --seconds is shorter
    min_rounds: int = 4


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # run_adj end to end: GHD search, sampler, Alg. 2, bag pre-compute,
        # HCube shuffle and Leapfrog (the paper's Table III headline). One
        # timed call, as a call takes about 15 s; at smaller scales, where
        # more calls would fit, the plan flips from call to call.
        Workload("adj-lj-q4", "adj", "LJ", "Q4", 1e-4, 14, min_rounds=1),
        # run_hcubej counting: no optimizer, raw multiway Leapfrog
        # intersections dominate; 4 servers land in 2 Spark partitions
        Workload("hcubej-as-q4", "hcubej", "AS", "Q4", 1e-4, 12),
        # run_hcubej writing every row: Leapfrog as a writer, the largest
        # HCube shuffle, and a row-set check against DuckDB on every call
        Workload(
            "hcubej-ok-q2-emit", "hcubej", "OK", "Q2", 5e-5, 16,
            count_only=False, warmup_rounds=2,
        ),
    )
}

#: (workload, seed) -> expected result count of the default input. AS-Q4
#: and OK-Q2 are from DuckDB 1.0.0 (``reference.duckdb_result``), and the
#: matrix count agrees. LJ-Q4 is from ``reference.matrix_count``: DuckDB's
#: binary-join plan for it is slow.
PINNED: dict[tuple[str, int], int] = {
    ("adj-lj-q4", 14): 1_969_500,  # LJ × 1e-4: 6,546 edges
    ("hcubej-as-q4", 12): 381_693,  # AS × 1e-4: 1,954 edges
    ("hcubej-ok-q2-emit", 16): 115_665,  # OK × 5e-5: 11,206 edges
}
