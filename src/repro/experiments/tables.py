"""Harnesses for Tables I–IV of the paper (§VII).

* Table I   — dataset statistics of the six graph stand-ins.
* Tables II–IV — Co-Optimization (ADJ) vs Communication-First (HCubeJ)
  phase breakdown on AS / LJ / OK for Q4–Q6.

Paper-reported numbers are embedded here so every harness prints the
reference rows next to the measured rows; `EXPERIMENTS.md` holds the
written comparison. The communication-first runs execute under a
wall-clock budget that stands in for the paper's 12-hour cap; a budget
overrun is reported as "> budget", mirroring the "> 43200" cells.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.hcubej import run_hcubej
from repro.core.adj import ADJConfig, PhaseReport, run_adj
from repro.core.cost import default_cost_model
from repro.core.query import get_query
from repro.synth_data import GRAPH_SCALE, PAPER_TABLE1, dataset_pdf

# ---------------------------------------------------------------------------
# Paper-reported numbers
# ---------------------------------------------------------------------------

#: Tables II–IV, seconds. Structure:
#: dataset -> query -> strategy -> (optimization, pre_computing,
#:                                  communication, computation, total)
#: ``float('inf')`` encodes the paper's "> 43200" timeout cells; the
#: comm-first strategy has no pre-computing phase (None).
PAPER_COOPT_TABLES: dict[str, dict[str, dict[str, tuple]]] = {
    "AS": {  # Table II
        "Q4": {
            "coopt": (107, 12, 66, 1276, 1461),
            "commfirst": (3, None, 21, float("inf"), float("inf")),
        },
        "Q5": {
            "coopt": (90, 24, 50, 907, 1071),
            "commfirst": (4, None, 36, float("inf"), float("inf")),
        },
        "Q6": {
            "coopt": (63, 12, 19, 18, 112),
            "commfirst": (4, None, 47, 30426, 30477),
        },
    },
    "LJ": {  # Table III
        "Q4": {
            "coopt": (106, 22, 132, 1282, 1542),
            "commfirst": (8, None, 62, float("inf"), float("inf")),
        },
        "Q5": {
            "coopt": (132, 44, 103, 222, 501),
            "commfirst": (8, None, 112, float("inf"), float("inf")),
        },
        "Q6": {
            "coopt": (105, 22, 147, 350, 624),
            "commfirst": (12, None, 204, float("inf"), float("inf")),
        },
    },
    "OK": {  # Table IV
        "Q4": {
            "coopt": (218, 71, 712, 13214, 14215),
            "commfirst": (37, None, 1050, float("inf"), float("inf")),
        },
        "Q5": {
            "coopt": (265, 142, 422, 877, 1706),
            "commfirst": (46, None, 1566, float("inf"), float("inf")),
        },
        "Q6": {
            "coopt": (278, 71, 1189, 516, 2054),
            "commfirst": (42, None, 2067, float("inf"), float("inf")),
        },
    },
}

#: which paper table number covers which dataset
COOPT_TABLE_NUMBERS = {"AS": "II", "LJ": "III", "OK": "IV"}


# ---------------------------------------------------------------------------
# Table I — datasets
# ---------------------------------------------------------------------------

@dataclass
class Table1Row:
    dataset: str
    paper_edges: int
    paper_mb: float
    ours_edges: int
    ours_mb: float


def table1_rows(scale: float = GRAPH_SCALE) -> list[Table1Row]:
    """Measured statistics of the six stand-in graphs next to Table I."""
    rows = []
    for name, (paper_edges, paper_mb) in PAPER_TABLE1.items():
        pdf = dataset_pdf(name, scale=scale)
        ours_mb = pdf.memory_usage(index=False, deep=True).sum() / 1e6
        rows.append(
            Table1Row(name, paper_edges, paper_mb, len(pdf), ours_mb)
        )
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    out = [
        "Table I — datasets (paper graphs vs synthetic stand-ins)",
        f"{'Dataset':<8}{'paper |R|':>14}{'paper MB':>10}"
        f"{'ours |R|':>12}{'ours MB':>10}",
    ]
    for r in rows:
        out.append(
            f"{r.dataset:<8}{r.paper_edges:>14,}{r.paper_mb:>10.1f}"
            f"{r.ours_edges:>12,}{r.ours_mb:>10.2f}"
        )
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Tables II–IV — Co-Optimization vs Communication-First
# ---------------------------------------------------------------------------

@dataclass
class CooptRow:
    """One query's measured pair of strategy reports."""

    dataset: str
    query: str
    coopt: PhaseReport
    commfirst: PhaseReport
    budget_seconds: float


def run_coopt_table(
    spark: SparkSession,
    dataset: str,
    queries: tuple[str, ...] = ("Q4", "Q5", "Q6"),
    *,
    scale: float = GRAPH_SCALE,
    n_servers: int = 16,
    sample_k: int = 60,
    commfirst_budget: float = 120.0,
    coopt_budget: float | None = 600.0,
) -> list[CooptRow]:
    """Run one dataset's Table II/III/IV rows: ADJ vs HCubeJ per query."""
    pdf = dataset_pdf(dataset, scale=scale)
    edges = spark.createDataFrame(pdf)
    edges = edges.persist()
    edges.count()
    edges_rows = pdf[["src", "dst"]].to_numpy()
    cm = default_cost_model(spark, n_servers=n_servers)
    rows: list[CooptRow] = []
    try:
        # an untimed join takes the session's cold start off the first row
        warm = ADJConfig(n_servers=n_servers, budget_seconds=commfirst_budget)
        run_hcubej(spark, get_query("Q1"), edges, warm, edges_rows=edges_rows)
        for qname in queries:
            q = get_query(qname)
            co = run_adj(
                spark,
                q,
                edges,
                ADJConfig(
                    n_servers=n_servers,
                    sample_k=sample_k,
                    budget_seconds=coopt_budget,
                ),
                dataset=dataset,
                cost_model=cm,
                edges_rows=edges_rows,
            )
            cf = run_hcubej(
                spark,
                q,
                edges,
                ADJConfig(
                    n_servers=n_servers,
                    budget_seconds=commfirst_budget,
                ),
                dataset=dataset,
                edges_rows=edges_rows,
            )
            rows.append(CooptRow(dataset, qname, co, cf, commfirst_budget))
    finally:
        edges.unpersist()
    return rows


def _fmt_secs(x: float, timed_out: bool, budget: float) -> str:
    if timed_out:
        return f">{budget:.0f}"
    return f"{x:.1f}"


def _plan_cell(rep: PhaseReport) -> str:
    """The plan a report ran: the bags pre-computed by a round of their
    own, the bags joined on each server, attribute order and the shares
    above 1 of its final round (Comm-First pre-computes nothing)."""
    plan = rep.detail["plan"]
    shares = plan["shares"]

    def bags(key: str) -> str:
        return "{" + ",".join(map(str, plan.get(key, []))) + "}"

    return (
        f"bags {bags('precompute')}  server bags {bags('on_server')}"
        f"  order {'-'.join(plan['order'])}"
        "  shares "
        + (" ".join(f"{a}:{p}" for a, p in shares.items() if p > 1) or "-")
    )


def format_coopt_table(rows: list[CooptRow]) -> str:
    """Render measured rows next to the paper's reference numbers, each
    followed by the plan it ran."""
    if not rows:
        return "(no rows)"
    ds = rows[0].dataset
    tno = COOPT_TABLE_NUMBERS.get(ds, "?")
    head = (
        f"Table {tno} — {ds}: Co-Optimization vs Communication-First "
        f"(seconds; paper numbers in [brackets]; inf = paper >43200)"
    )
    cols = (
        f"{'Q':<4}{'strategy':<12}{'Opt':>12}{'Pre':>12}"
        f"{'Comm':>12}{'Comp':>12}{'Total':>12}"
    )
    lines = [head, cols]
    for r in rows:
        ref = PAPER_COOPT_TABLES.get(ds, {}).get(r.query, {})

        def render(rep: PhaseReport, key: str) -> str:
            p = ref.get(key)
            to = rep.timed_out
            comp = _fmt_secs(rep.computation, to, r.budget_seconds)
            tot = _fmt_secs(rep.total, to, r.budget_seconds)
            cells = [
                f"{rep.optimization:.1f}",
                f"{rep.pre_computing:.1f}",
                f"{rep.communication:.1f}",
                comp,
                tot,
            ]
            if p:
                refs = [
                    "-" if v is None else ("inf" if v == float("inf") else str(v))
                    for v in p
                ]
                cells = [
                    f"{c}[{pv}]" for c, pv in zip(cells, refs)
                ]
            name = "Co-Opt" if key == "coopt" else "Comm-First"
            return (
                f"{r.query:<4}{name:<12}"
                + "".join(f"{c:>12}" for c in cells)
                + f"\n{'':<16}{_plan_cell(rep)}"
            )

        lines.append(render(r.coopt, "coopt"))
        lines.append(render(r.commfirst, "commfirst"))
    return "\n".join(lines)
