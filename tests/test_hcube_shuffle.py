"""Spark tests for the HCube shuffle (§II-A, §V): routing correctness,
duplication counts, and Push/Pull equivalence."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.hcube.shares import dup
from repro.hcube.shuffle import (
    MODES,
    hcube_shuffle,
    n_servers,
    order_aligned_attrs,
    strides,
)


ORDER = ("a", "b", "c")
SHARES = {"a": 2, "b": 2, "c": 1}  # 4 servers


def _rels(spark):
    r1 = spark.createDataFrame(
        pd.DataFrame({"a": [0, 1, 2, 3], "b": [0, 1, 2, 3]})
    )
    r2 = spark.createDataFrame(
        pd.DataFrame({"b": [0, 1, 2, 3], "c": [5, 6, 7, 8]})
    )
    return {"R1": r1, "R2": r2}, {"R1": ("a", "b"), "R2": ("b", "c")}


def _collect_tuples(df, arity=2):
    """(server, rel) -> sorted list of tuples (flat blocks reshaped)."""
    out = {}
    for row in df.collect():
        key = (row["server"], row["rel"])
        blk = row["block"]
        out.setdefault(key, []).extend(
            tuple(blk[i : i + arity]) for i in range(0, len(blk), arity)
        )
    return {k: sorted(v) for k, v in out.items()}


class TestHelpers:
    def test_order_aligned(self):
        assert order_aligned_attrs(("c", "a"), ("a", "b", "c")) == ("a", "c")

    def test_strides(self):
        s = strides(("a", "b", "c"), {"a": 2, "b": 3, "c": 4})
        assert s == {"a": 1, "b": 2, "c": 6}

    def test_n_servers(self):
        assert n_servers({"a": 2, "b": 3}) == 6
        assert n_servers({}) == 1


@pytest.mark.parametrize("mode", MODES)
class TestShuffleRouting:
    def test_tuples_routed_by_hash(self, spark, mode):
        rels, schemas = _rels(spark)
        out = hcube_shuffle(rels, schemas, ORDER, SHARES, mode=mode)
        got = _collect_tuples(out)
        # R1(a,b) has no free attr with share>1? c has share 1 → dup=1:
        # each tuple goes to exactly one server = h(a) + 2*h(b)
        for a, b in [(0, 0), (1, 1), (2, 2), (3, 3)]:
            server = (a % 2) + 2 * (b % 2)
            assert (a, b) in got[(server, "R1")]
        # R2(b,c): a is free with share 2 → duplicated to 2 servers
        for b, c in [(0, 5), (1, 6), (2, 7), (3, 8)]:
            for ha in range(2):
                server = ha + 2 * (b % 2)
                assert (b, c) in got[(server, "R2")]

    def test_total_tuple_count_matches_dup_formula(self, spark, mode):
        rels, schemas = _rels(spark)
        out = hcube_shuffle(rels, schemas, ORDER, SHARES, mode=mode)
        total = out.agg(F.sum(F.size("block"))).collect()[0][0]
        expect = 2 * (4 * dup(("a", "b"), SHARES) + 4 * dup(("b", "c"), SHARES))
        assert total == expect  # flat blocks: 2 values per binary tuple

    def test_block_values_in_trie_order(self, spark, mode):
        """Tuples are emitted permuted to the global attribute order."""
        rels, schemas = _rels(spark)
        # R3 declared as (c, b): values must arrive as (b, c)
        r3 = spark.createDataFrame(pd.DataFrame({"c": [9], "b": [1]}))
        out = hcube_shuffle(
            {"R3": r3}, {"R3": ("c", "b")}, ORDER, SHARES, mode=mode
        )
        got = _collect_tuples(out)
        tuples = [t for v in got.values() for t in v]
        assert tuples and set(tuples) == {(1, 9)}


class TestModes:
    def test_modes_agree_on_content(self, spark):
        rels, schemas = _rels(spark)
        flat = {}
        for mode in MODES:
            out = hcube_shuffle(rels, schemas, ORDER, SHARES, mode=mode)
            flat[mode] = {
                k: sorted(v) for k, v in _collect_tuples(out).items()
            }
        assert flat["push"] == flat["pull"]

    def test_pull_fewer_rows_than_push(self, spark):
        rels, schemas = _rels(spark)
        push = hcube_shuffle(rels, schemas, ORDER, SHARES, mode="push").count()
        pull = hcube_shuffle(rels, schemas, ORDER, SHARES, mode="pull").count()
        assert pull < push

    def test_bad_mode_rejected(self, spark):
        rels, schemas = _rels(spark)
        with pytest.raises(ValueError):
            hcube_shuffle(rels, schemas, ORDER, SHARES, mode="teleport")

    def test_missing_column_rejected(self, spark):
        rels, schemas = _rels(spark)
        with pytest.raises(ValueError):
            hcube_shuffle(
                {"R1": rels["R1"]}, {"R1": ("a", "z")}, ORDER, SHARES
            )


class TestPaperExample4:
    def test_r3_blocks(self, spark):
        """§V Example 4: R3(c,d) with p=(1,2,2,1,1) splits into blocks by
        h_c; block (c%2==1) goes to servers with c-coordinate 1."""
        order = ("a", "b", "c", "d", "e")
        shares = {"a": 1, "b": 2, "c": 2, "d": 1, "e": 1}
        r3 = spark.createDataFrame(
            pd.DataFrame({"c": [1, 1, 2, 2], "d": [1, 2, 1, 2]})
        )
        out = hcube_shuffle(
            {"R3": r3}, {"R3": ("c", "d")}, order, shares, mode="pull"
        )
        got = _collect_tuples(out)
        # strides: a:1,b:1? no — only share>1 attrs contribute: b stride 1?
        # strides over full order: a=1,b=1*1? compute: a:1, b:1, c:2, d:4, e:4
        # server = h_b*1? — b share 2 → contributes h_b * stride_b.
        # stride: a=1 (p_a=1), b=1, c=2, d=4, e=4 → server = h_b + 2*h_c
        # c%2==1 tuples → servers {h_b + 2 : h_b in 0..1} = {2, 3}
        odd_servers = {s for (s, _), v in got.items() if any(t[0] % 2 == 1 for t in v)}
        assert odd_servers == {2, 3}
        even_servers = {s for (s, _), v in got.items() if any(t[0] % 2 == 0 for t in v)}
        assert even_servers == {0, 1}
