"""The benchmark tracer patches module attributes of the program by name;
entering and leaving ``Tracer.installed()`` proves each one still exists
and is restored afterwards. Needs no Spark session."""
import importlib
import pathlib

import repro.baselines.hcubej
import repro.core.adj
import repro.core.executor
import repro.core.optimizer

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

HOOKS = {
    repro.core.adj: (
        "optimize",
        "precompute_bags",
        "optimize_shares",
        "one_round_join",
    ),
    repro.baselines.hcubej: ("optimize_shares", "one_round_join"),
    repro.core.executor: ("hcube_shuffle",),
    repro.core.optimizer: ("find_hypertree", "estimate_cardinality_local"),
}


def _snapshot():
    return {
        (mod.__name__, name): value
        for mod in HOOKS
        for name, value in vars(mod).items()
    }


def test_tracer_patches_every_hook_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = _snapshot()
    with tracing.Tracer().installed():
        during = _snapshot()
    patched = {key for key, value in during.items() if value is not before[key]}
    assert patched == {
        (mod.__name__, name) for mod, names in HOOKS.items() for name in names
    }
    assert _snapshot() == before
