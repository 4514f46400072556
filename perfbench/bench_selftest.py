"""Quick self-test of the benchmark, at a tiny scale.

    python3 -m pytest perfbench/bench_selftest.py -q

Each test starts ``run.py`` in a subprocess (its own Spark session), so
the whole file takes a few minutes.
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"adj-lj-q4": "5e-6", "hcubej-as-q4": "2e-5", "hcubej-ok-q2-emit": "3e-6"}


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def bench(workload, *extra):
    p = run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--scale", TINY[workload], *extra,
    )
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return p.returncode, result


def expected_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def check_shape(result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_printed(workload):
    code, result = bench(workload, "--trace", "0")
    assert code == 0
    check_shape(result)
    assert result["correct"] and result["failed"] == 0
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected_units("end_to_end")
    assert result["metrics"]["success_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["adj-lj-q4", "hcubej-ok-q2-emit"])
def test_per_layer_metrics_printed(workload):
    code, result = bench(workload, "--trace", "1")
    assert code == 0
    check_shape(result)
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected_units("per_layer")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["hcube.servers"] >= metrics["hcube.partitions_nonempty"] >= 1
    assert metrics["leapfrog.extensions"] > 0
    if workload == "adj-lj-q4":
        assert metrics["sampling.estimate_calls"] > 0
        assert metrics["optimizer.optimize_s"] > 0
    else:
        assert metrics["leapfrog.rows_emitted"] > 0


def test_wrong_reference_count_fails():
    code, result = bench("hcubej-ok-q2-emit", "--expect-count", "1")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(
            ROOT / p, tmp_path / p,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    p = run(tmp_path, "--workload", "adj-lj-q4", "--seed", "1",
            "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
    assert not os.path.exists(tmp_path / "src")
