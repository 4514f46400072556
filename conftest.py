import os
import sys


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > half of ``MemTotal`` clamped to 2–8 GiB (the Tier-1 command's
    rule in ROADMAP.md) > 2g. spark.driver.memory is read at JVM launch,
    not from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS before pyspark
    is imported anywhere — this runs at conftest import, which pytest loads
    before any test module.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    try:
        with open("/proc/meminfo") as f:
            kib = next(
                int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:")
            )
    except (OSError, StopIteration, ValueError, IndexError):
        return "2g"
    os.environ["_SPARK_DRIVER_MEM_SRC"] = f"meminfo:MemTotal={kib}kB"
    return f"{min(8, max(2, kib // (2 << 20)))}g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (shuffle partitions, Arrow, broadcast threshold) are set here.
    Broadcast joins are disabled so papers about shuffle/join algorithms
    actually exercise the shuffle path at SF~=0.1; a reproduction that
    wants a broadcast join sets the threshold back for that query.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()


class ForcedRun:
    """What ``run_adj`` ran while Alg. 2 prices one bag variant's cost
    term at −∞: each plan it chose, and each one-round join it made with
    its schemas, local plan and timings."""

    def __init__(self, monkeypatch, cost_term: str):
        import repro.core.adj as adj
        from repro.core.cost import CostModel

        self.plans = []
        self.joins = []
        optimize, one_round_join = adj.optimize, adj.one_round_join

        def recorded_optimize(*args, **kwargs):
            self.plans.append(optimize(*args, **kwargs))
            return self.plans[-1]

        def recorded_join(spark, relations, schemas, *args, **kwargs):
            out = one_round_join(spark, relations, schemas, *args, **kwargs)
            self.joins.append((
                {k: tuple(v) for k, v in schemas.items()},
                tuple(kwargs.get("server_bags", ())),
                out[1],
            ))
            return out

        monkeypatch.setattr(CostModel, cost_term, lambda *_: float("-inf"))
        monkeypatch.setattr(adj, "optimize", recorded_optimize)
        monkeypatch.setattr(adj, "one_round_join", recorded_join)


class ForcedPrecompute(ForcedRun):
    def check_last_run(self):
        """The last plan pre-computes every bag that can be pre-computed,
        and the last join (the final round) read the plan's relations,
        every ``bag{i}`` among them."""
        plan = self.plans[-1]
        assert plan.precompute == {
            b.index for b in plan.hypertree.bags if b.needs_precompute
        }
        final = self.joins[-1][0]
        assert final == {name: attrs for name, attrs, _ in plan.relations}
        assert {f"bag{i}" for i in plan.precompute} <= final.keys()


class ForcedOnServer(ForcedRun):
    def check_last_run(self):
        """The last plan joins every bag that can be pre-computed on the
        servers and distributes none; its final round read the plan's
        raw relations with one local bag per such bag, and every server
        of a plan with bags spent time on them."""
        plan = self.plans[-1]
        bags = {b.index for b in plan.hypertree.bags if b.needs_precompute}
        assert plan.on_server == bags and not plan.precompute
        schemas, server_bags, timings = self.joins[-1]
        assert schemas == {name: attrs for name, attrs, _ in plan.relations}
        assert server_bags == plan.server_bags
        assert len(server_bags) == len(bags)
        for rels, order in server_bags:
            assert set(rels) <= schemas.keys()
            assert {a for r in rels for a in schemas[r]} == set(order)
        if bags:
            assert timings.servers
            assert all(r.bag_s > 0 for r in timings.servers.values())


@pytest.fixture
def forced_precompute(monkeypatch):
    """Make Alg. 2 pre-compute every bag that can be pre-computed by
    pricing ``cost_M`` at −∞: each such bag then wins the round it is a
    candidate in, and the plan's relations and shares are priced for the
    bags it runs. Returns a :class:`ForcedPrecompute` record."""
    return ForcedPrecompute(monkeypatch, "cost_M")


@pytest.fixture
def forced_on_server(monkeypatch):
    """Make Alg. 2 join every bag that can be pre-computed on the servers
    by pricing ``cost_S`` at −∞, as ``forced_precompute`` prices
    ``cost_M``. Returns a :class:`ForcedOnServer` record."""
    return ForcedOnServer(monkeypatch, "cost_S")
