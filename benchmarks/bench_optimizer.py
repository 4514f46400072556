"""Spark-free benchmark of the Alg. 2 optimizer at the Tables II–IV scale.

``optimize`` on AS/LJ/OK × Q4–Q6 at scale 1e-3 (seed 0, ``sample_k`` 60,
16 servers), priced by one fixed cost model so the plans do not depend on
a calibration run: α 6e5, β_pre 5e6, β_raw 9e5, γ 0.6 s, and M from
``derive_memory`` over the raw relations, as ``run_adj`` derives it.

Each line gives the median of 3 rounds after one warm-up round, and the
plan: the bags pre-computed by a round of their own (``bags``), the bags
joined on each server (``server bags``), attribute order, shares above
1, and each round's bag with its variant (``raw``, ``distributed`` or
``server``) and priced cost in seconds. It ends with the ``Trie``
builds and share solves (``optimize_shares`` calls) of one more, untimed
``optimize`` call: counts that repeat exactly, unlike the times.

Run: pytest benchmarks/bench_optimizer.py --benchmark-only
"""
from unittest import mock

import pytest

from benchmarks.common import write_result
from repro.core import cost
from repro.core.cost import CostModel
from repro.core.optimizer import optimize
from repro.core.query import get_query
from repro.hcube.shares import derive_memory
from repro.leapfrog.trie import Trie
from repro.synth_data import dataset_pdf

ROUNDS = 3
N_SERVERS = 16
LINES: list[str] = []


def _plan_text(plan) -> str:
    shares = " ".join(f"{a}:{p}" for a, p in plan.shares.p.items() if p > 1)
    rounds = " ".join(
        f"{r['bag']}:{r['variant']}:{r['cost']:.3f}"
        for r in plan.est["rounds"]
    )
    capped = plan.est["capped"]

    def bags(idxs):
        return "{" + ",".join(map(str, sorted(idxs))) + "}"

    return (
        f"bags {bags(plan.precompute)} server bags {bags(plan.on_server)} "
        f"{'-'.join(plan.order)} {shares or '-'} | rounds {rounds}"
        + (f" | capped {capped}" if capped else "")
    )


def _work_counts(run) -> str:
    """The ``Trie`` builds and share solves of one ``run()``."""
    counts = {"tries": 0, "solves": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    with mock.patch.object(
        Trie, "__init__", counted(Trie.__init__, "tries")
    ), mock.patch.object(
        cost, "optimize_shares", counted(cost.optimize_shares, "solves")
    ):
        run()
    return f"tries {counts['tries']} solves {counts['solves']}"


@pytest.mark.parametrize("qname", ["Q4", "Q5", "Q6"])
@pytest.mark.parametrize("dataset", ["AS", "LJ", "OK"])
def test_optimize(benchmark, dataset, qname):
    rows = dataset_pdf(dataset)[["src", "dst"]].to_numpy()
    q = get_query(qname)
    db = {r.name: (r.attrs, rows) for r in q.relations}
    cm = CostModel(
        alpha=6e5,
        beta_pre=5e6,
        beta_raw=9e5,
        gamma=0.6,
        n_servers=N_SERVERS,
        memory_tuples=derive_memory(
            q.attrs, [(r.attrs, len(rows)) for r in q.relations], N_SERVERS
        ),
    )
    def run():
        return optimize(q, db, cm, sample_k=60, seed=0)

    plan = benchmark.pedantic(run, rounds=ROUNDS, warmup_rounds=1)
    line = (
        f"[optimize] {dataset}x1e-3 {qname}: "
        f"{benchmark.stats.stats.median:.2f} s  {_plan_text(plan)}"
        f" | {_work_counts(run)}"
    )
    LINES.append(line)
    print("\n" + line)
    write_result("optimizer", "\n".join(LINES))
