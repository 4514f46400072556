"""ADJ benchmark: one workload, one process, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload adj-lj-q4 --seed 14 --seconds 5 --trace 0

The process starts its own Spark session (``local[<cores>]``), sets up
three input graphs from ``--seed``, makes one cold call (reported as
``session.first_query_s``) and the workload's warm-up calls, then timed
calls until ``--seconds`` have passed. Every call's result is checked
against a reference computed without the code under test (see
reference.py). With ``--trace 1`` the timed calls alternate between plain
and traced ones and the per-layer metrics are printed instead of the
end-to-end ones (see tracing.py). README.md in this directory describes
the workloads and metrics.

The last line of standard output is the JSON result; everything else goes
to standard error. A per-round record (plans, cost constants, phase
times, spans) is written under ``.perfbench_out/``. The exit code is 0
when every checked result was right, 1 when one was wrong, and 2 when
the benchmark could not run at all.
"""
import time

T_PROCESS = time.monotonic()  # the process's start, for setup_s

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# siblings in this directory, importable without the program under test
from reference import (  # noqa: E402
    canonical_rows,
    duckdb_result,
    matrix_count,
)
from workloads import PINNED, QUERY_EDGES, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

N_SERVERS = 16
SAMPLE_K = 60
MODE = "pull"
DRIVER_MEMORY = "2g"
#: a run sets up this many input graphs (seeds seed, seed + STEP, ...),
#: cycles its rounds through them and reports the median set-up
SETUP_REPEATS = 3
GRAPH_SEED_STEP = 1000
ROUND_BUDGET_S = 60.0  # per-server Leapfrog cap; a round over it fails
WALL_LIMIT_S = 150.0  # no round starts after this much process time
ALARM_S = 170  # hard stop, under the 180 s a run may take

END_TO_END_UNITS = {
    "query_s": "s",
    "setup_s": "s",
    "success_frac": "ratio",
    "driver_peak_rss_mb": "MB",
}


def log(*parts) -> None:
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed, passed to graph_edges_pdf and ADJConfig.seed "
        "(default: the dataset's Table I stand-in seed)",
    )
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale",
        type=float,
        default=None,
        help="share of the paper's edge count (default: the workload's)",
    )
    p.add_argument(
        "--expect-count",
        type=int,
        default=None,
        help="replace the reference count (the self-test passes a wrong one)",
    )
    return p.parse_args(argv)


def configure_spark_env(tmp: Path) -> None:
    """Environment read when the Spark JVM and its Python workers start.

    Everything Spark, the JVM and Python's ``tempfile`` write goes under
    ``tmp``; the workers import ``repro`` from this checkout's ``src``.
    """
    cores = len(os.sched_getaffinity(0))
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    # no hsperfdata files in /tmp, neither from the JVM that spark-submit
    # starts to build the driver's command line nor from the driver
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(tmp / 'wh'))}",
            "pyspark-shell",
        ]
    )


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, if it started, then the JVM launched for it, and
    wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if spark is not None:
        spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclass
class Instance:
    """One input graph of the run, set up and with its reference result."""

    graph_seed: int
    edges_pdf: object  # pandas (src, dst)
    edges: object  # persisted Spark DataFrame
    rows: object  # numpy (n, 2)
    cost_model: object  # CostModel, or None for HCubeJ
    setup_s: float
    calibrate_s: float
    expected: int = 0  # reference result count
    ref_rows: object = None  # reference rows, sorted, for emit workloads


def set_up(spark, wl, graph_seed: int, scale: float) -> Instance:
    """Input generation, persist and (for ADJ) cost calibration."""
    from repro.core import cost
    from repro.synth_data import PAPER_TABLE1, graph_edges_pdf

    t0 = time.monotonic()
    pdf = graph_edges_pdf(
        n_edges=max(8, int(PAPER_TABLE1[wl.dataset][0] * scale)),
        seed=graph_seed,
    )
    edges = spark.createDataFrame(pdf).persist()
    edges.count()
    rows = pdf[["src", "dst"]].to_numpy()
    cm, calibrate_s = None, 0.0
    if wl.method == "adj":
        # α and γ are cached per session; drop them so every set-up
        # calibrates, as a fresh session does
        cost._CAL_CACHE.pop(id(spark), None)
        tc = time.monotonic()
        cm = cost.default_cost_model(spark, n_servers=N_SERVERS)
        calibrate_s = time.monotonic() - tc
    return Instance(
        graph_seed, pdf, edges, rows, cm, time.monotonic() - t0, calibrate_s
    )


def plan_record(report, cm) -> dict:
    plan = report.detail.get("plan", {})
    rec = {
        "precompute": list(plan.get("precompute", [])),
        "order": list(plan["order"]),
        "shares": dict(report.detail.get("shares_final", plan["shares"])),
    }
    if cm is not None:
        rec.update(alpha=cm.alpha, beta_pre=cm.beta_pre, gamma=cm.gamma)
    return rec


def plan_key(rec: dict) -> str:
    return json.dumps(
        [rec["precompute"], rec["order"], sorted(rec["shares"].items())]
    )


class Bench:
    """Rounds of test-case calls; round ``i`` runs on graph ``i % K``."""

    def __init__(self, spark, wl, seed, instances):
        self.spark, self.wl, self.seed = spark, wl, seed
        self.instances = instances
        self.rounds: list[dict] = []

    def call(self, inst: Instance):
        from repro.baselines.hcubej import run_hcubej
        from repro.core.adj import ADJConfig, run_adj
        from repro.core.query import get_query

        wl = self.wl
        cfg = ADJConfig(
            n_servers=N_SERVERS,
            sample_k=SAMPLE_K,
            seed=self.seed,
            mode=MODE,
            count_only=wl.count_only,
            budget_seconds=ROUND_BUDGET_S,
        )
        q = get_query(wl.query)
        if wl.method == "adj":
            return run_adj(
                self.spark, q, inst.edges, cfg, dataset=wl.dataset,
                cost_model=inst.cost_model, edges_rows=inst.rows,
            )
        return run_hcubej(
            self.spark, q, inst.edges, cfg, dataset=wl.dataset,
            edges_rows=inst.rows,
        )

    def verify(self, report, inst: Instance) -> bool:
        """Compare with the reference; outside the timed region."""
        if report.result_count != inst.expected:
            return False
        if self.wl.count_only:
            return True
        df = report.detail["result_df"]
        cols = sorted(df.columns)
        got = canonical_rows(df.select(*cols).toPandas().to_numpy())
        return got.shape == inst.ref_rows.shape and bool(
            (got == inst.ref_rows).all()
        )

    def round(self, kind: str, tracer=None) -> dict:
        """One test-case call, timed, then checked. A traced call runs on
        the graph of the call before it, so the two compare."""
        index = len(self.rounds)
        graph = index % len(self.instances)
        if tracer is not None:
            graph = self.rounds[-1]["graph"]
        inst = self.instances[graph]
        rec = {
            "index": index,
            "kind": kind,
            "graph": graph,
            "graph_seed": inst.graph_seed,
        }
        ctx = contextlib.nullcontext()
        if tracer is not None:
            tracer.start_round(index)
            ctx = tracer.installed()
        t0 = time.monotonic()
        try:
            with ctx:
                report = self.call(inst)
            rec["seconds"] = time.monotonic() - t0
        except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
            rec["seconds"] = time.monotonic() - t0
            rec.update(ok=False, wrong=False, error=traceback.format_exc())
            log(f"round {index} ({kind}) failed:\n{rec['error']}")
            self.rounds.append(rec)
            return rec
        try:
            right = not report.timed_out and self.verify(report, inst)
        finally:
            if "result_df" in report.detail:
                report.detail["result_df"].unpersist()
        rec.update(
            ok=right,
            wrong=not report.timed_out and not right,
            timed_out=report.timed_out,
            count=report.result_count,
            phases={
                "optimization": report.optimization,
                "pre_computing": report.pre_computing,
                "communication": report.communication,
                "computation": report.computation,
            },
            plan=plan_record(report, inst.cost_model),
        )
        log(
            f"round {index} ({kind}) {rec['seconds']:.3f}s "
            f"graph={inst.graph_seed} count={report.result_count} ok={right} "
            f"plan={rec['plan']}"
        )
        self.rounds.append(rec)
        return rec


def median(xs):
    return statistics.median(xs) if xs else 0.0


def distinct_plans(rounds) -> int:
    """Most distinct plans seen on any one input graph."""
    plans: dict[int, set[str]] = {}
    for r in rounds:
        if "plan" in r:
            plans.setdefault(r["graph_seed"], set()).add(plan_key(r["plan"]))
    return max((len(p) for p in plans.values()), default=0)


def run_workload(args, wl, scale, spark) -> tuple[dict, bool, dict]:
    from repro.core.query import get_query

    seed = wl.default_seed if args.seed is None else args.seed
    if {r.attrs for r in get_query(wl.query).relations} != set(
        QUERY_EDGES[wl.query]
    ):
        raise RuntimeError(f"{wl.query} differs from the reference's query")

    session_s = time.monotonic() - T_PROCESS
    instances = [
        set_up(spark, wl, seed + GRAPH_SEED_STEP * i, scale)
        for i in range(SETUP_REPEATS)
    ]
    for inst in instances:
        # one session, one calibration: the last, as the session's cache
        # would hold it
        inst.cost_model = instances[-1].cost_model
    log(
        f"session {session_s:.3f}s, set-ups",
        [round(i.setup_s, 3) for i in instances],
    )

    # references, outside every timed region
    pinned = PINNED.get((wl.name, seed)) if scale == wl.scale else None
    reference_ok = True
    for inst in instances:
        inst.expected = matrix_count(inst.edges_pdf, wl.query)
        if not wl.count_only:
            inst.ref_rows = duckdb_result(
                inst.edges_pdf, QUERY_EDGES[wl.query], False,
                os.environ["TMPDIR"],
            )
            reference_ok &= len(inst.ref_rows) == inst.expected
    reference_ok &= pinned is None or pinned == instances[0].expected
    if args.expect_count is not None:
        instances[0].expected = args.expect_count
    log(
        "reference counts", [i.expected for i in instances],
        f"(pinned {pinned}), agree={reference_ok}",
    )

    bench = Bench(spark, wl, seed, instances)
    first = bench.round("first")
    for _ in range(wl.warmup_rounds):
        bench.round("warmup")

    tracer = None
    layers: list[dict] = []
    if args.trace:
        from tracing import Tracer, replay

        tracer = Tracer()
    # a traced run alternates plain and traced calls, as many as a plain run
    kinds = ["plain", "traced"] if tracer is not None else ["plain"]
    t_phase = time.monotonic()
    n = 0
    while time.monotonic() - T_PROCESS < WALL_LIMIT_S and (
        n < max(wl.min_rounds, len(kinds))
        or time.monotonic() - t_phase < args.seconds
    ):
        kind = kinds[n % len(kinds)]
        rec = bench.round(kind, tracer if kind == "traced" else None)
        n += 1
        if kind == "traced" and rec["ok"] and tracer.captured is not None:
            values = tracer.layer_values()
            per_server, count = replay(tracer.captured, not wl.count_only)
            values.update(per_server)
            rec["replay_count"] = count
            rec["wrong"] |= count != rec["count"]
            layers.append(values)

    rounds = bench.rounds
    wrong = any(r.get("wrong") for r in rounds) or not reference_ok
    plain = [r["seconds"] for r in rounds if r["kind"] == "plain"]
    end_to_end = {
        "query_s": median(plain),
        "setup_s": session_s + median([i.setup_s for i in instances]),
        "success_frac": sum(r["ok"] for r in rounds) / len(rounds),
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "scale": scale,
        "cores": len(os.sched_getaffinity(0)),
        "graph_seeds": [i.graph_seed for i in instances],
        "expected_counts": [i.expected for i in instances],
        "pinned_count": pinned,
        "session_s": session_s,
        "first_query_s": first["seconds"],
        "setup_runs_s": [i.setup_s for i in instances],
        "calibrate_runs_s": [i.calibrate_s for i in instances],
        "rounds": rounds,
        "plans_distinct": distinct_plans(rounds),
        "end_to_end": end_to_end,
    }
    if tracer is None:
        metrics = {k: (end_to_end[k], u) for k, u in END_TO_END_UNITS.items()}
    else:
        from tracing import PER_LAYER_UNITS

        traced = [r["seconds"] for r in rounds if r["kind"] == "traced"]
        values = {k: median([v[k] for v in layers]) for k in layers[0]} if layers else {}
        values["session.first_query_s"] = first["seconds"]
        values["plan.distinct"] = distinct_plans(rounds)
        values["cost.calibrate_s"] = median([i.calibrate_s for i in instances])
        values["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
        missing = set(PER_LAYER_UNITS) - set(values)
        if missing:
            raise RuntimeError(f"no traced round gave {sorted(missing)}")
        metrics = {k: (values[k], u) for k, u in PER_LAYER_UNITS.items()}
        record["per_layer_rounds"] = layers
        record["spans"] = [s.__dict__ for s in tracer.spans]
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    result = {
        "correct": not wrong,
        "attempted": len(rounds),
        "failed": sum(not r["ok"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, not wrong, record


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        log(f"no program to measure: {SRC / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    scale = wl.scale if args.scale is None else args.scale

    def on_alarm(signum, frame):
        raise TimeoutError(f"benchmark exceeded {ALARM_S}s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(ALARM_S)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    configure_spark_env(tmp)
    spark = None
    try:
        spark = start_spark()
        result, correct, record = run_workload(args, wl, scale, spark)
    finally:
        signal.alarm(0)
        stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    name = f"{wl.name}-seed{record['seed']}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str))
    log(f"record written to {OUT_DIR / name}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
