"""Shared helpers for the table benchmarks.

Scales and budgets are environment-overridable so the same benchmarks
can be run heavier or lighter:

* ``REPRO_BENCH_SCALE``  — graph scale factor (default per-table).
* ``REPRO_BENCH_BUDGET`` — comm-first Leapfrog budget, seconds (default
  90; stands in for the paper's 12-hour cap).
"""
import os
import pathlib
import subprocess

from repro.experiments.tables import (
    CooptRow,
    format_coopt_table,
    run_coopt_table,
)

#: formatted tables are also written here (pytest captures stdout, so
#: the bench log alone would not show them)
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def provenance(spark) -> str:
    """Where a result was measured: git commit and core count."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=RESULTS_DIR.parent,
            capture_output=True,
            text=True,
        ).stdout.strip()
    except OSError:
        sha = ""
    return (
        f"git {sha or 'unknown'}, {os.cpu_count()} cores, "
        f"{spark.sparkContext.defaultParallelism} task slots"
    )


def warm_alternating(run, keys: tuple, rounds: int) -> dict:
    """One untimed ``run(keys[-1])`` for the session's cold start, then
    ``rounds`` rounds that call ``run`` on every key, the first key
    rotating each round; returns each key's results in call order."""
    run(keys[-1])
    out = {k: [] for k in keys}
    for i in range(rounds):
        j = i % len(keys)
        for k in keys[j:] + keys[:j]:
            out[k].append(run(k))
    return out


def bench_scale(default: float) -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", default))


def bench_budget(default: float = 90.0) -> float:
    return float(os.environ.get("REPRO_BENCH_BUDGET", default))


def run_and_check(spark, benchmark, dataset: str, scale: float) -> list[CooptRow]:
    """Run one co-optimization table and assert the paper's shape:
    on every query the Co-Optimization strategy completes, and on each
    query where the Communication-First strategy hit its budget (the
    paper's timeout cells) Co-Optimization is the winner."""
    rows = benchmark.pedantic(
        lambda: run_coopt_table(
            spark,
            dataset,
            scale=scale,
            commfirst_budget=bench_budget(),
        ),
        rounds=1,
        iterations=1,
    )
    text = format_coopt_table(rows)
    print("\n" + text)
    write_result(f"table_{dataset}", text)
    for r in rows:
        assert not r.coopt.timed_out, f"{dataset}/{r.query}: co-opt timed out"
        assert r.coopt.result_count is not None
        if not r.commfirst.timed_out:
            # both finished → counts must agree (cross-strategy correctness)
            assert r.coopt.result_count == r.commfirst.result_count
    return rows
