"""Tests for the table harnesses and the embedded paper numbers."""
import math

import pytest

from repro.core.adj import PhaseReport
from repro.experiments.tables import (
    COOPT_TABLE_NUMBERS,
    CooptRow,
    PAPER_COOPT_TABLES,
    format_coopt_table,
    format_table1,
    run_coopt_table,
    table1_rows,
)
from repro.synth_data import PAPER_TABLE1


class TestPaperNumbers:
    def test_datasets_covered(self):
        assert sorted(PAPER_COOPT_TABLES) == ["AS", "LJ", "OK"]
        assert COOPT_TABLE_NUMBERS == {"AS": "II", "LJ": "III", "OK": "IV"}

    def test_queries_covered(self):
        for ds, per_q in PAPER_COOPT_TABLES.items():
            assert sorted(per_q) == ["Q4", "Q5", "Q6"], ds

    def test_coopt_rows_sum_to_total(self):
        """Internal consistency of the transcribed paper numbers:
        opt + pre + comm + comp == total for every finite co-opt row."""
        for ds, per_q in PAPER_COOPT_TABLES.items():
            for qname, strategies in per_q.items():
                opt, pre, comm, comp, total = strategies["coopt"]
                assert opt + pre + comm + comp == total, (ds, qname)

    def test_commfirst_timeouts_encoded_as_inf(self):
        cells = [
            strategies["commfirst"]
            for per_q in PAPER_COOPT_TABLES.values()
            for strategies in per_q.values()
        ]
        # all but (AS, Q6) timed out in the paper
        assert sum(1 for c in cells if math.isinf(c[4])) == len(cells) - 1

    def test_as_q6_commfirst_finite_row_sums(self):
        opt, pre, comm, comp, total = PAPER_COOPT_TABLES["AS"]["Q6"][
            "commfirst"
        ]
        assert pre is None
        assert opt + comm + comp == total

    def test_coopt_always_beats_commfirst_in_paper(self):
        """The paper's headline: co-optimization total < comm-first total
        on every test-case of Tables II–IV."""
        for per_q in PAPER_COOPT_TABLES.values():
            for strategies in per_q.values():
                assert strategies["coopt"][4] < strategies["commfirst"][4]


class TestTable1Harness:
    def test_rows_and_format(self):
        rows = table1_rows(scale=1e-4)
        assert {r.dataset for r in rows} == set(PAPER_TABLE1)
        text = format_table1(rows)
        assert "Table I" in text
        for name in PAPER_TABLE1:
            assert name in text

    def test_scale_passthrough(self):
        small = {r.dataset: r.ours_edges for r in table1_rows(scale=5e-5)}
        big = {r.dataset: r.ours_edges for r in table1_rows(scale=1e-4)}
        assert all(small[d] < big[d] for d in small)


class TestCooptHarness:
    def test_format_handles_timeout_rows(self):
        co = PhaseReport("Co-Optimization", "Q4", "AS", 1.0, 0.5, 0.2, 3.0)
        cf = PhaseReport(
            "Communication-First", "Q4", "AS", 0.1, 0.0, 0.3, 90.0,
            timed_out=True,
        )
        co.detail = {
            "plan": {
                "precompute": [0, 2],
                "on_server": [1],
                "order": ("b", "d", "e", "c", "a"),
                "shares": {"a": 1, "b": 4, "c": 1, "d": 1, "e": 1},
            },
        }
        cf.detail = {
            "plan": {
                "order": ("e", "b", "a", "d", "c"),
                "shares": {"a": 1, "b": 2, "c": 1, "d": 1, "e": 2},
            },
        }
        text = format_coopt_table([CooptRow("AS", "Q4", co, cf, 90.0)])
        assert "Table II" in text
        assert ">90" in text
        assert "[107]" in text  # paper reference rendered
        lines = text.splitlines()
        # each strategy row is followed by the plan it ran, with its
        # shares above 1
        co_at = lines.index(next(x for x in lines if x.startswith("Q4  Co-Opt")))
        cf_at = lines.index(
            next(x for x in lines if x.startswith("Q4  Comm-First"))
        )
        assert "bags {0,2}  server bags {1}" in lines[co_at + 1]
        assert "order b-d-e-c-a" in lines[co_at + 1]
        assert "shares b:4" in lines[co_at + 1]
        assert "bags {}  server bags {}" in lines[cf_at + 1]
        assert "order e-b-a-d-c" in lines[cf_at + 1]
        assert "shares b:2 e:2" in lines[cf_at + 1]

    def test_smoke_run_tiny(self, spark):
        """End-to-end harness smoke test at minuscule scale."""
        rows = run_coopt_table(
            spark,
            "AS",
            ("Q6",),
            scale=5e-5,
            n_servers=4,
            sample_k=10,
            commfirst_budget=60.0,
        )
        assert len(rows) == 1
        r = rows[0]
        assert r.coopt.result_count is not None
        assert r.commfirst.result_count is not None
        assert r.coopt.result_count == r.commfirst.result_count
        assert "Q6" in format_coopt_table(rows)


class _FakeFrame:
    def persist(self):
        return self

    def count(self):
        return 0

    def unpersist(self):
        return self


class _FakeSpark:
    def createDataFrame(self, pdf):
        return _FakeFrame()


class TestWarmUp:
    """Spark-free: the runners are replaced by recorders."""

    def test_coopt_table_warm_up_not_reported(self, monkeypatch):
        import repro.experiments.tables as tables

        calls = []

        def runner(strategy):
            def run(spark, q, edges, cfg, **kw):
                calls.append((strategy, q.name))
                return PhaseReport(
                    strategy, q.name, detail={"call": len(calls)}
                )

            return run

        monkeypatch.setattr(tables, "run_adj", runner("co"))
        monkeypatch.setattr(tables, "run_hcubej", runner("cf"))
        monkeypatch.setattr(tables, "default_cost_model", lambda *a, **k: None)
        rows = run_coopt_table(_FakeSpark(), "AS", ("Q4", "Q5"), scale=5e-5)
        # one untimed join comes first; the timed rows are the later calls
        assert calls == [
            ("cf", "Q1"), ("co", "Q4"), ("cf", "Q4"), ("co", "Q5"), ("cf", "Q5")
        ]
        reported = [
            (r.query, r.coopt.detail["call"], r.commfirst.detail["call"])
            for r in rows
        ]
        assert reported == [("Q4", 2, 3), ("Q5", 4, 5)]

    def test_bench_alternation_warm_up_not_reported(self):
        from benchmarks.common import warm_alternating

        calls = []

        def run(key):
            calls.append(key)
            return len(calls)

        out = warm_alternating(run, ("push", "pull"), 3)
        assert calls == ["pull", "push", "pull", "pull", "push", "push", "pull"]
        assert out == {"push": [2, 5, 6], "pull": [3, 4, 7]}
