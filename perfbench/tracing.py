"""Driver-side tracing for the ADJ benchmark.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
module attributes that ``run_adj`` and ``run_hcubej`` look up at call
time (``repro.core.adj.optimize``, ``repro.core.executor.hcube_shuffle``
and so on) with wrappers that time the call and read counts off its
arguments and result. The benchmark does not copy the programs' control
flow: each wrapper calls the original and returns its result unchanged.

The per-server join runs in Python workers that the driver cannot wrap,
so ``replay`` re-runs each server's share of the last HCube shuffle on
the driver with the program's own ``Trie`` and ``leapfrog`` and the
plan's order and shares.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import repro.baselines.hcubej
import repro.core.adj
import repro.core.executor
import repro.core.optimizer
from repro.hcube.shuffle import n_servers, order_aligned_attrs
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import Trie

LEVELS = 5  # leapfrog.intermediate_L0 … L4; Q4 has five attributes

#: per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS: dict[str, str] = {
    "session.first_query_s": "s",
    "optimizer.optimize_s": "s",
    "sampling.estimate_calls": "count",
    "sampling.estimate_s": "s",
    "sampling.samples_used": "count",
    "sampling.samples_requested": "count",
    "sampling.sample_yield": "ratio",
    "sampling.capped_calls": "count",
    "hypertree.find_s": "s",
    "plan.distinct": "count",
    "cost.calibrate_s": "s",
    "precompute.bags_s": "s",
    "precompute.bag_rows": "count",
    "hcube.shares_s": "s",
    "hcube.shuffle_s": "s",
    "hcube.shuffled_tuples": "count",
    "hcube.servers": "count",
    "hcube.partitions_nonempty": "count",
    "hcube.max_servers_per_partition": "count",
    "hcube.load_imbalance": "ratio",
    "executor.join_s": "s",
    "executor.partition_imbalance": "ratio",
    "trie.build_s": "s",
    "trie.rows_per_s": "1/s",
    "leapfrog.join_s_sum": "s",
    "leapfrog.join_s_max": "s",
    "leapfrog.straggler_ratio": "ratio",
    "leapfrog.extensions": "count",
    "leapfrog.extensions_per_s": "1/s",
    **{f"leapfrog.intermediate_L{i}": "count" for i in range(LEVELS)},
    "leapfrog.rows_emitted": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    round: int


@dataclass
class Captured:
    """The last HCube shuffle's DataFrame and the plan it was built for."""

    shuffled: object  # pyspark DataFrame
    schemas: dict[str, tuple[str, ...]]
    order: tuple[str, ...]
    shares: dict[str, int]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    round: int = -1
    captured: Captured | None = None
    _stack: list[int] = field(default_factory=list)

    def start_round(self, index: int) -> None:
        self.round = index
        self.counts = defaultdict(float)
        self.captured = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.monotonic(), 0.0, parent, self.round))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            end = time.monotonic()
            self.spans[idx].end = end
            self.counts[f"{name}_s"] += end - self.spans[idx].start

    def _wrap(self, fn, name: str, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- counters read off arguments and results ---------------------------
    def _on_estimate(self, est, args, kwargs) -> None:
        c = self.counts
        requested = min(int(kwargs.get("k", 200)), est.val_count)
        c["sampling.estimate_calls"] += 1
        c["sampling.samples_used"] += est.k
        c["sampling.samples_requested"] += requested
        c["sampling.capped_calls"] += est.k < requested

    def _on_bags(self, result, args, kwargs) -> None:
        _, sizes = result
        self.counts["precompute.bag_rows"] += sum(sizes.values())

    def _on_join(self, result, args, kwargs) -> None:
        _, timings = result
        self.counts["hcube.shuffle_s"] += timings.communication
        self.counts["hcube.shuffled_tuples"] += timings.shuffled_tuples

    def _on_shuffle(self, df, args, kwargs) -> None:
        _, schemas, order, shares = args[:4]
        self.captured = Captured(
            df,
            {k: tuple(v) for k, v in schemas.items()},
            tuple(order),
            dict(shares),
        )

    @contextlib.contextmanager
    def installed(self):
        adj, hj = repro.core.adj, repro.baselines.hcubej
        patches = [
            (adj, "optimize", "optimizer.optimize", None),
            (repro.core.optimizer, "find_hypertree", "hypertree.find", None),
            (
                repro.core.optimizer,
                "estimate_cardinality_local",
                "sampling.estimate",
                self._on_estimate,
            ),
            (adj, "precompute_bags", "precompute.bags", self._on_bags),
            (adj, "optimize_shares", "hcube.shares", None),
            (hj, "optimize_shares", "hcube.shares", None),
            (adj, "one_round_join", "executor.join", self._on_join),
            (hj, "one_round_join", "executor.join", self._on_join),
            (
                repro.core.executor,
                "hcube_shuffle",
                "hcube.shuffle_plan",
                self._on_shuffle,
            ),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in patches]
        try:
            for mod, attr, name, after in patches:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, after))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def layer_values(self) -> dict[str, float]:
        """This round's driver-side per-layer values."""
        c = self.counts
        requested = c["sampling.samples_requested"]
        return {
            "optimizer.optimize_s": c["optimizer.optimize_s"],
            "sampling.estimate_calls": c["sampling.estimate_calls"],
            "sampling.estimate_s": c["sampling.estimate_s"],
            "sampling.samples_used": c["sampling.samples_used"],
            "sampling.samples_requested": requested,
            "sampling.sample_yield": (
                c["sampling.samples_used"] / requested if requested else 0.0
            ),
            "sampling.capped_calls": c["sampling.capped_calls"],
            "hypertree.find_s": c["hypertree.find_s"],
            "precompute.bags_s": c["precompute.bags_s"],
            "precompute.bag_rows": c["precompute.bag_rows"],
            "hcube.shares_s": c["hcube.shares_s"],
            "hcube.shuffle_s": c["hcube.shuffle_s"],
            "hcube.shuffled_tuples": c["hcube.shuffled_tuples"],
            "executor.join_s": c["executor.join_s"],
        }


def replay(captured: Captured, emit: bool) -> tuple[dict[str, float], int]:
    """Re-run every server's share of ``captured`` on the driver.

    Returns the per-layer values that need per-server data, and the total
    result count (which must equal the program's).
    """
    from pyspark.sql import functions as F

    schemas, order = captured.schemas, captured.order
    pdf = captured.shuffled.select(
        F.spark_partition_id().alias("pid"), "server", "rel", "block"
    ).toPandas()
    arity = {rel: len(attrs) for rel, attrs in schemas.items()}
    pdf["tuples"] = [
        len(b) // arity[r] for b, r in zip(pdf["block"], pdf["rel"])
    ]
    servers = n_servers(captured.shares)
    server_tuples = pdf.groupby("server")["tuples"].sum()
    part_tuples = pdf.groupby("pid")["tuples"].sum()
    total_tuples = float(server_tuples.sum())

    build_s, join_s, rows_in = [], [], 0
    extensions, emitted, count = 0, 0, 0
    levels = [0] * LEVELS
    for _, g in pdf.groupby("server"):
        chunks: dict[str, list[np.ndarray]] = defaultdict(list)
        for rel, block in zip(g["rel"], g["block"]):
            if len(block):
                chunks[rel].append(
                    np.asarray(block, dtype=np.int64).reshape(-1, arity[rel])
                )
        if any(rel not in chunks for rel in schemas):
            continue  # the worker returns an empty result for this server
        t0 = time.monotonic()
        tries = []
        for rel, attrs in schemas.items():
            rows = np.concatenate(chunks[rel])
            rows_in += len(rows)
            tries.append(Trie(rows, order_aligned_attrs(attrs, order)))
        t1 = time.monotonic()
        res = leapfrog(tries, order, emit=emit)
        t2 = time.monotonic()
        build_s.append(t1 - t0)
        join_s.append(t2 - t1)
        extensions += res.extensions
        count += res.count
        emitted += len(res.rows) if emit else 0
        for i, n in enumerate(res.intermediate[:LEVELS]):
            levels[i] += n

    join_sum = sum(join_s)
    values = {
        "hcube.servers": servers,
        "hcube.partitions_nonempty": int(pdf["pid"].nunique()),
        "hcube.max_servers_per_partition": int(
            pdf.groupby("pid")["server"].nunique().max()
        ),
        "hcube.load_imbalance": float(server_tuples.max())
        / (total_tuples / servers),
        # one_round_join repartitions into as many partitions as servers
        "executor.partition_imbalance": float(part_tuples.max())
        / (total_tuples / servers),
        "trie.build_s": sum(build_s),
        "trie.rows_per_s": rows_in / sum(build_s) if build_s else 0.0,
        "leapfrog.join_s_sum": join_sum,
        "leapfrog.join_s_max": max(join_s, default=0.0),
        "leapfrog.straggler_ratio": (
            max(join_s) / statistics.fmean(join_s) if join_s else 0.0
        ),
        "leapfrog.extensions": extensions,
        "leapfrog.extensions_per_s": extensions / join_sum if join_sum else 0.0,
        **{f"leapfrog.intermediate_L{i}": n for i, n in enumerate(levels)},
        "leapfrog.rows_emitted": emitted,
    }
    return values, count
