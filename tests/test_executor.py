"""Tests for the one-round executor (HCube + per-server Leapfrog); the
per-server worker is also tested on its own, without Spark."""
import itertools
import sys
import time
import zipfile
import zipimport

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.adj import relation_dfs
from repro.core.executor import (
    _drop_zip_importers,
    _make_worker,
    one_round_join,
    server_join,
)
from repro.core.hypertree import find_hypertree
from repro.core.optimizer import bag_join
from repro.core.query import get_query
from repro.hcube.shuffle import MODES, order_aligned_attrs
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import Trie
from repro.oracle import assert_equivalent
from repro.synth_data import tiny_graph_pdf
from tests.test_shares import dup


def _setup(spark, qname, edges_pdf):
    q = get_query(qname)
    edges = spark.createDataFrame(edges_pdf)
    rels = relation_dfs(edges, q)
    schemas = {r.name: r.attrs for r in q.relations}
    return q, rels, schemas


def _duck_count(sql, edges_pdf):
    con = duckdb.connect()
    try:
        con.register("e", edges_pdf)
        return con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
    finally:
        con.close()


SHARES_ABC = {"a": 2, "b": 2, "c": 1}


class TestOneRoundJoin:
    def test_triangle_count_matches_oracle(self, spark):
        edges = tiny_graph_pdf()
        q, rels, schemas = _setup(spark, "Q1", edges)
        cnt, t = one_round_join(
            spark, rels, schemas, ("a", "b", "c"), SHARES_ABC
        )
        assert cnt == _duck_count(q.to_sql(), edges)
        assert t.communication > 0 and t.computation > 0
        assert t.result_count == cnt
        assert t.shuffled_tuples > 0

    def test_rows_match_duckdb_oracle(self, spark):
        edges = tiny_graph_pdf(n_edges=150, n_nodes=25, seed=3)
        q, rels, schemas = _setup(spark, "Q1", edges)
        df, t = one_round_join(
            spark,
            rels,
            schemas,
            ("a", "b", "c"),
            SHARES_ABC,
            count_only=False,
        )
        assert_equivalent(df, q.to_sql(), e=edges)

    @pytest.mark.parametrize("mode", MODES)
    def test_modes_same_result(self, spark, mode):
        edges = tiny_graph_pdf()
        q, rels, schemas = _setup(spark, "Q1", edges)
        cnt, _ = one_round_join(
            spark, rels, schemas, ("a", "b", "c"), SHARES_ABC, mode=mode
        )
        assert cnt == _duck_count(q.to_sql(), edges)

    @pytest.mark.parametrize(
        "shares",
        [
            {"a": 1, "b": 1, "c": 1},  # single server
            {"a": 4, "b": 1, "c": 1},
            {"a": 2, "b": 2, "c": 2},  # 8 servers
        ],
    )
    def test_share_vectors_do_not_change_result(self, spark, shares):
        edges = tiny_graph_pdf()
        q, rels, schemas = _setup(spark, "Q1", edges)
        cnt, _ = one_round_join(spark, rels, schemas, ("a", "b", "c"), shares)
        assert cnt == _duck_count(q.to_sql(), edges)

    def test_q2_with_four_attrs(self, spark):
        edges = tiny_graph_pdf()
        q, rels, schemas = _setup(spark, "Q2", edges)
        shares = {"a": 2, "b": 1, "c": 2, "d": 1}
        cnt, _ = one_round_join(spark, rels, schemas, ("a", "b", "c", "d"), shares)
        assert cnt == _duck_count(q.to_sql(), edges)

    def test_q4_five_attrs_valid_order(self, spark):
        edges = tiny_graph_pdf()
        q, rels, schemas = _setup(spark, "Q4", edges)
        shares = {a: 1 for a in q.attrs} | {"b": 2, "e": 2}
        cnt, _ = one_round_join(
            spark, rels, schemas, ("b", "e", "a", "c", "d"), shares
        )
        assert cnt == _duck_count(q.to_sql(), edges)

    def test_cached_leapfrog_same_result(self, spark):
        edges = tiny_graph_pdf()
        q, rels, schemas = _setup(spark, "Q1", edges)
        cnt, _ = one_round_join(
            spark,
            rels,
            schemas,
            ("a", "b", "c"),
            SHARES_ABC,
            cache_entries=10_000,
        )
        assert cnt == _duck_count(q.to_sql(), edges)

    def test_deadline_overrun_returns_no_result(self, spark):
        """A server passing its Leapfrog deadline is a result state: no
        result, ``timed_out`` set, the computation phase still timed."""
        edges = tiny_graph_pdf(n_edges=2500, n_nodes=70, seed=4)
        q, rels, schemas = _setup(spark, "Q3", edges)
        shares = {a: 1 for a in q.attrs}
        result, t = one_round_join(
            spark,
            rels,
            schemas,
            ("a", "b", "c", "d", "e"),
            shares,
            budget_seconds=1e-4,
        )
        assert result is None
        assert t.timed_out
        assert t.result_count is None
        assert t.computation > 0

    def test_wall_clock_overrun_drops_result(self, spark):
        """A phase whose wall time exceeds the budget is timed out and
        returns no result, even when its servers finished (the paper's
        12 h cap is wall-clock on the whole run)."""
        edges = tiny_graph_pdf()
        _, rels, schemas = _setup(spark, "Q1", edges)
        # Spark's job overhead alone takes the round past 0.05 s, whatever
        # the servers counted before the deadline
        cnt, t = one_round_join(
            spark, rels, schemas, ("a", "b", "c"), SHARES_ABC,
            budget_seconds=0.05,
        )
        assert t.timed_out
        assert t.communication + t.computation > 0.05
        assert cnt is None
        assert t.result_count is None

    @pytest.mark.parametrize("mode", MODES)
    def test_server_records_sum_to_shuffled_tuples(self, spark, mode):
        """Every non-empty server reports once; the records' tuples sum
        to ``shuffled_tuples``, and no server starts before the call."""
        edges = tiny_graph_pdf()
        q, rels, schemas = _setup(spark, "Q1", edges)
        before = time.time()
        cnt, t = one_round_join(
            spark, rels, schemas, ("a", "b", "c"), SHARES_ABC, mode=mode
        )
        assert set(t.servers) == set(range(4))
        assert sum(r.tuples for r in t.servers.values()) == t.shuffled_tuples
        assert t.shuffled_tuples == sum(
            len(edges) * dup(attrs, SHARES_ABC) for attrs in schemas.values()
        )
        assert all(r.start >= before for r in t.servers.values())
        assert t.straggler_ratio >= 1.0

    def test_no_rdd_left_persisted(self, spark):
        """Count mode, a timed-out call, and emit mode once its result is
        unpersisted leave Spark's persisted RDDs as they were."""
        edges = tiny_graph_pdf()
        _, rels, schemas = _setup(spark, "Q1", edges)
        sc = spark.sparkContext

        def persisted():
            return set(sc._jsc.getPersistentRDDs().keySet())

        before = persisted()
        one_round_join(spark, rels, schemas, ("a", "b", "c"), SHARES_ABC)
        assert persisted() == before
        for count_only in (True, False):
            res, t = one_round_join(
                spark, rels, schemas, ("a", "b", "c"), SHARES_ABC,
                count_only=count_only, budget_seconds=1e-4,
            )
            assert t.timed_out and res is None
            assert persisted() == before
        df, _ = one_round_join(
            spark, rels, schemas, ("a", "b", "c"), SHARES_ABC,
            count_only=False,
        )
        assert persisted() != before
        df.unpersist()
        assert persisted() == before

    def test_empty_edges(self, spark):
        q = get_query("Q1")
        edges = spark.createDataFrame([], schema="src long, dst long")
        rels = relation_dfs(edges, q)
        schemas = {r.name: r.attrs for r in q.relations}
        cnt, _ = one_round_join(spark, rels, schemas, ("a", "b", "c"), SHARES_ABC)
        assert cnt == 0


@pytest.mark.parametrize("mode,exchanges", [("pull", 2), ("push", 1)])
def test_count_mode_ends_at_per_server_stage(spark, mode, exchanges):
    """A count-mode round runs one stage per exchange of its plan and
    then the per-server stage, one task per Spark partition of servers,
    and no aggregate stage after it: the driver sums the servers'
    counts."""
    edges = tiny_graph_pdf()
    q, rels, schemas = _setup(spark, "Q1", edges)
    sc = spark.sparkContext
    group = f"count-mode-{mode}"
    sc.setJobGroup(group, "one count-mode round")
    try:
        cnt, _ = one_round_join(
            spark, rels, schemas, ("a", "b", "c"), SHARES_ABC, mode=mode
        )
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description"):
            sc.setLocalProperty(key, None)
    assert cnt == _duck_count(q.to_sql(), edges)
    tracker = sc.statusTracker()
    stage_ids = sorted(
        s
        for j in tracker.getJobIdsForGroup(group)
        for s in tracker.getJobInfo(j).stageIds
    )
    ran = [
        info
        for info in map(tracker.getStageInfo, dict.fromkeys(stage_ids))
        if info is not None and info.numCompletedTasks > 0
    ]
    assert len(ran) == exchanges + 1
    assert ran[-1].numTasks == min(4, sc.defaultParallelism)


def test_drop_zip_importers_keeps_zip_imports_working(tmp_path, monkeypatch):
    """After the worker's prune no ``zipimporter`` is cached, and a module
    of an archive that was already read still imports."""
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("prune_probe_one.py", "VALUE = 1\n")
        z.writestr("prune_probe_two.py", "VALUE = 2\n")
    monkeypatch.syspath_prepend(str(archive))
    try:
        import prune_probe_one

        assert prune_probe_one.VALUE == 1
        assert isinstance(
            sys.path_importer_cache[str(archive)], zipimport.zipimporter
        )
        _drop_zip_importers()
        assert not any(
            isinstance(f, zipimport.zipimporter)
            for f in sys.path_importer_cache.values()
        )
        import prune_probe_two

        assert prune_probe_two.VALUE == 2
    finally:
        for name in ("prune_probe_one", "prune_probe_two"):
            sys.modules.pop(name, None)
        sys.path_importer_cache.pop(str(archive), None)


class _Sink:
    """Stands in for the Spark accumulator the worker reports to."""

    def __init__(self):
        self.value = {}

    def add(self, term):
        self.value.update(term)


class TestWorker:
    """The per-server join function, called on a server's frame without
    Spark."""

    ORDER = ("a", "b", "c")

    def _frame(self, edges, drop=()):
        """Q1's relations as one server receives them: ``(server, rel,
        block)`` rows, each block flattened in trie column order."""
        q = get_query("Q1")
        cols = {c: edges[c].to_numpy() for c in ("src", "dst")}
        rows = []
        for r in q.relations:
            if r.name in drop:
                continue
            aligned = order_aligned_attrs(r.attrs, self.ORDER)
            block = np.stack(
                [cols[("src", "dst")[r.attrs.index(a)]] for a in aligned],
                axis=1,
            )
            rows.append((0, r.name, block.reshape(-1)))
        schemas = {r.name: r.attrs for r in q.relations}
        return schemas, pd.DataFrame(rows, columns=["server", "rel", "block"])

    def _run(self, schemas, pdf, count_only, deadline=None, records=None):
        records = _Sink() if records is None else records
        worker = _make_worker(
            schemas, self.ORDER, count_only, deadline, 0, records
        )
        return worker(pdf)

    def test_reports_one_record(self):
        """A server reports its start, the tuples it received and its
        trie-build, bag and Leapfrog seconds, keyed by its server id."""
        edges = tiny_graph_pdf()
        schemas, pdf = self._frame(edges)
        pdf["server"] = 3
        sink = _Sink()
        before = time.time()
        self._run(schemas, pdf, count_only=True, records=sink)
        assert list(sink.value) == [3]
        rec = sink.value[3]
        assert before <= rec.start <= time.time()
        assert rec.tuples == len(schemas) * len(edges)
        assert rec.build_s >= 0 and rec.join_s >= 0
        assert rec.bag_s >= 0

    @pytest.mark.parametrize("count_only", [True, False])
    def test_bag_on_server_same_result(self, count_only):
        """Q1's one bag joined on the server, in an order other than the
        round's, then read as one trie: the raw relations' result."""
        schemas, pdf = self._frame(tiny_graph_pdf())
        raw = self._run(schemas, pdf, count_only)
        sink = _Sink()
        worker = _make_worker(
            schemas, self.ORDER, count_only, None, 0, sink,
            ((tuple(schemas), ("c", "a", "b")),),
        )
        out = worker(pdf)
        assert len(raw) and sink.value[0].bag_s > 0
        pd.testing.assert_frame_equal(
            out.sort_values(list(out.columns), ignore_index=True),
            raw.sort_values(list(raw.columns), ignore_index=True),
        )

    def test_missing_relation_counts_zero(self):
        schemas, pdf = self._frame(tiny_graph_pdf(), drop=("R3",))
        out = self._run(schemas, pdf, count_only=True)
        assert out["cnt"].tolist() == [0]
        assert out["cnt"].dtype == np.int64

    def test_missing_relation_emits_empty_int64_frame(self):
        schemas, pdf = self._frame(tiny_graph_pdf(), drop=("R3",))
        out = self._run(schemas, pdf, count_only=False)
        assert len(out) == 0
        assert list(out.columns) == list(self.ORDER)
        assert (out.dtypes == np.int64).all()

    def test_passed_deadline_counts_nothing(self):
        """The phase deadline is one wall-clock instant shared by every
        server: a server that starts after it counts nothing."""
        schemas, pdf = self._frame(tiny_graph_pdf())
        assert self._run(schemas, pdf, count_only=True)["cnt"][0] > 0
        out = self._run(
            schemas, pdf, count_only=True, deadline=time.time() - 1
        )
        assert out["cnt"].tolist() == [0]


@pytest.mark.parametrize("mode", MODES)
def test_shuffled_tuples_match_dup_formula(spark, mode):
    """``shuffled_tuples`` is ``Σ |R|·dup(R, p)`` over relations of arity
    1, 2 and 3 in one query."""
    schemas = {"U": ("a",), "R": ("a", "b"), "T": ("b", "c", "d")}
    data = {
        "U": [(i,) for i in range(7)],
        "R": [(i, j) for i in range(5) for j in range(3)],
        "T": [(j, k, k + 1) for j in range(4) for k in range(6)],
    }
    rels = {
        n: spark.createDataFrame(
            rows, schema=", ".join(f"{a} long" for a in schemas[n])
        )
        for n, rows in data.items()
    }
    shares = {"a": 2, "b": 2, "c": 1, "d": 3}
    cnt, t = one_round_join(
        spark, rels, schemas, ("a", "b", "c", "d"), shares, mode=mode
    )
    assert t.shuffled_tuples == sum(
        len(data[n]) * dup(schemas[n], shares) for n in schemas
    )
    # U ⋈ R ⋈ T: every (a, b) with a < 5, b < 3 meets the 6 T rows of b
    assert cnt == 5 * 3 * 6


def hcube_fragments(rows, schemas, order, shares):
    """Each server's tuples of each relation of a graph query, as the
    HCube shuffle routes them (``h_A(x) = x mod p_A``), their columns in
    trie order: one ``{rel: rows}`` per server coordinate."""
    out = []
    for coord in itertools.product(*(range(shares[a]) for a in order)):
        at = dict(zip(order, coord))
        frag = {}
        for rel, attrs in schemas.items():
            keep = np.ones(len(rows), dtype=bool)
            for i, a in enumerate(attrs):
                keep &= rows[:, i] % shares[a] == at[a]
            cols = [attrs.index(a) for a in order_aligned_attrs(attrs, order)]
            frag[rel] = rows[keep][:, cols]
        out.append(frag)
    return out


class TestServerJoin:
    """Spark-free: a server's join with its bags joined from its own
    tuples equals Leapfrog over its raw relations."""

    ORDER = tuple("bcdea")
    SHARES = {"a": 1, "b": 2, "c": 1, "d": 1, "e": 2}

    @staticmethod
    def _raw(frag, schemas, order, emit):
        tries = [
            Trie(frag[rel], order_aligned_attrs(attrs, order))
            for rel, attrs in schemas.items()
        ]
        return leapfrog(tries, order, emit=emit)

    def _q4(self):
        q = get_query("Q4")
        schemas = {r.name: r.attrs for r in q.relations}
        bags = tuple(
            (tuple(r.name for r in rels), order)
            for rels, order in (
                bag_join(q, b) for b in find_hypertree(q).bags
                if b.needs_precompute
            )
        )
        rows = tiny_graph_pdf(n_edges=600, n_nodes=60, seed=9)[
            ["src", "dst"]
        ].to_numpy()
        return schemas, bags, hcube_fragments(
            rows, schemas, self.ORDER, self.SHARES
        )

    @pytest.mark.parametrize("n_bags", [1, 3])
    def test_equals_raw_leapfrog_on_hcube_fragments(self, n_bags):
        """Every server of Q4 under b:2 e:2 counts and emits what raw
        Leapfrog does; a bag's order ({a,b,e} joins as a-b-e) is not the
        round's (b-…-e-a), so the fragments' columns are permuted."""
        schemas, bags, frags = self._q4()
        bags = bags[:n_bags]
        assert bags[0] == (("R1", "R5", "R6"), ("a", "b", "e"))
        total = 0
        for frag in frags:
            raw = self._raw(frag, schemas, self.ORDER, emit=True)
            res, build_s, bag_s, join_s = server_join(
                frag, schemas, self.ORDER, bags, emit=True
            )
            assert res.count == raw.count
            np.testing.assert_array_equal(
                np.unique(res.rows, axis=0), np.unique(raw.rows, axis=0)
            )
            counted, *_ = server_join(frag, schemas, self.ORDER, bags)
            assert counted.count == raw.count
            assert min(build_s, bag_s, join_s) >= 0
            total += raw.count
        assert total > 0

    def test_server_without_a_covered_relation(self):
        """A server that received no tuple of R6, which {a,b,e} covers,
        joins an empty bag and counts nothing, as raw Leapfrog does."""
        schemas, bags, frags = self._q4()
        frag = dict(frags[0])
        assert self._raw(frag, schemas, self.ORDER, emit=False).count > 0
        frag["R6"] = frag["R6"][:0]
        res, *_ = server_join(frag, schemas, self.ORDER, bags[:1], emit=True)
        assert res.count == 0 and res.rows.shape == (0, 5)
        assert self._raw(frag, schemas, self.ORDER, emit=False).count == 0

    def test_passed_deadline_counts_nothing(self):
        schemas, bags, frags = self._q4()
        res, *_ = server_join(
            frags[0], schemas, self.ORDER, bags, deadline=time.monotonic() - 1
        )
        assert res.count == 0
