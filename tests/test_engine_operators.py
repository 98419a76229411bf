"""Unit tests for expressions and vectorized operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expressions import (
    And,
    Between,
    BinOp,
    Col,
    Compare,
    IfThenElse,
    InSet,
    Lit,
)
from repro.engine.operators import (
    AggSpec,
    FilterOperator,
    HashAggregateOperator,
    HashJoinOperator,
    LimitOperator,
    MapUdfOperator,
    ProjectOperator,
    SortOperator,
    register_udf,
)
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema


def make_batch(**cols):
    fields = []
    arrays = {}
    for name, values in cols.items():
        array = np.asarray(values)
        if array.dtype.kind in ("U", "O"):
            dtype = DataType.STRING
            array = array.astype(object)
        elif array.dtype.kind == "f":
            dtype = DataType.FLOAT64
        else:
            dtype = DataType.INT64
            array = array.astype(np.int64)
        fields.append(Field(name, dtype))
        arrays[name] = array
    return RecordBatch(Schema(fields), arrays)


class TestExpressions:
    def test_arithmetic(self):
        batch = make_batch(a=[1.0, 2.0], b=[10.0, 20.0])
        expr = BinOp("+", BinOp("*", Col("a"), Lit(2.0)), Col("b"))
        np.testing.assert_allclose(expr.evaluate(batch), [12.0, 24.0])

    def test_compare_and_logic(self):
        batch = make_batch(x=[1, 5, 10])
        expr = And(Compare(">", Col("x"), Lit(2)),
                   Compare("!=", Col("x"), Lit(10)))
        np.testing.assert_array_equal(expr.evaluate(batch),
                                      [False, True, False])

    def test_between_inclusive(self):
        batch = make_batch(d=[0.04, 0.05, 0.07, 0.08])
        expr = Between(Col("d"), 0.05, 0.07)
        np.testing.assert_array_equal(expr.evaluate(batch),
                                      [False, True, True, False])

    def test_in_set_strings(self):
        batch = make_batch(mode=["MAIL", "AIR", "SHIP"])
        expr = InSet(Col("mode"), ["MAIL", "SHIP"])
        np.testing.assert_array_equal(expr.evaluate(batch),
                                      [True, False, True])

    def test_if_then_else(self):
        batch = make_batch(x=[1, 5])
        expr = IfThenElse(Compare(">", Col("x"), Lit(2)), Lit(1.0), Lit(0.0))
        np.testing.assert_allclose(expr.evaluate(batch), [0.0, 1.0])

    def test_unknown_ops_rejected(self):
        with pytest.raises(ValueError):
            BinOp("%", Col("a"), Lit(1))
        with pytest.raises(ValueError):
            Compare("~", Col("a"), Lit(1))


class TestFilterProject:
    def test_filter_keeps_matching_rows(self):
        batch = make_batch(x=[1, 2, 3, 4])
        out = FilterOperator(Compare(">", Col("x"), Lit(2))).execute(batch)
        assert list(out.column("x")) == [3, 4]

    def test_filter_empty_batch_passthrough(self):
        batch = make_batch(x=np.empty(0, dtype=np.int64))
        out = FilterOperator(Compare(">", Col("x"), Lit(0))).execute(batch)
        assert out.num_rows == 0

    def test_project_computes_columns(self):
        batch = make_batch(p=[10.0, 20.0], d=[0.1, 0.2])
        op = ProjectOperator([
            ("revenue", BinOp("*", Col("p"), Col("d")), DataType.FLOAT64)])
        out = op.execute(batch)
        np.testing.assert_allclose(out.column("revenue"), [1.0, 4.0])
        assert out.schema.names() == ["revenue"]

    def test_project_requires_outputs(self):
        with pytest.raises(ValueError):
            ProjectOperator([])


class TestAggregate:
    def test_complete_groupby_sums(self):
        batch = make_batch(k=["a", "b", "a"], v=[1.0, 2.0, 3.0])
        op = HashAggregateOperator(["k"], [AggSpec("total", "sum", Col("v"))])
        out = op.execute(batch)
        result = dict(zip(out.column("k"), out.column("total")))
        assert result == {"a": 4.0, "b": 2.0}

    def test_count_star(self):
        batch = make_batch(k=["a", "b", "a"])
        op = HashAggregateOperator(["k"], [AggSpec("n", "count")])
        out = op.execute(batch)
        result = dict(zip(out.column("k"), out.column("n")))
        assert result == {"a": 2, "b": 1}

    def test_avg_min_max(self):
        batch = make_batch(k=["a", "a", "b"], v=[1.0, 3.0, 5.0])
        op = HashAggregateOperator(["k"], [
            AggSpec("mean", "avg", Col("v")),
            AggSpec("lo", "min", Col("v")),
            AggSpec("hi", "max", Col("v"))])
        out = op.execute(batch)
        by_key = {k: (m, lo, hi) for k, m, lo, hi in zip(
            out.column("k"), out.column("mean"), out.column("lo"),
            out.column("hi"))}
        assert by_key["a"] == (2.0, 1.0, 3.0)
        assert by_key["b"] == (5.0, 5.0, 5.0)

    def test_global_aggregate_no_keys(self):
        batch = make_batch(v=[1.0, 2.0, 3.0])
        op = HashAggregateOperator([], [AggSpec("s", "sum", Col("v"))])
        out = op.execute(batch)
        assert out.num_rows == 1
        assert out.column("s")[0] == 6.0

    def test_partial_final_composition_equals_complete(self):
        """Property at the heart of distributed aggregation."""
        rng = np.random.default_rng(0)
        batch = make_batch(
            k=[f"k{i % 7}" for i in range(500)],
            v=rng.random(500))
        aggs = [AggSpec("s", "sum", Col("v")),
                AggSpec("m", "avg", Col("v")),
                AggSpec("n", "count")]
        complete = HashAggregateOperator(["k"], aggs).execute(batch)
        # Split into 3 shards, partial-aggregate each, then final-merge.
        partials = []
        for shard in range(3):
            idx = np.arange(shard, 500, 3)
            partials.append(HashAggregateOperator(
                ["k"], aggs, mode="partial").execute(batch.take(idx)))
        merged = HashAggregateOperator(["k"], aggs, mode="final").execute(
            RecordBatch.concat(partials))
        a = {k: (s, m, n) for k, s, m, n in zip(
            complete.column("k"), complete.column("s"),
            complete.column("m"), complete.column("n"))}
        b = {k: (s, m, n) for k, s, m, n in zip(
            merged.column("k"), merged.column("s"),
            merged.column("m"), merged.column("n"))}
        assert set(a) == set(b)
        for key in a:
            np.testing.assert_allclose(a[key], b[key])

    def test_invalid_func_rejected(self):
        with pytest.raises(ValueError):
            AggSpec("x", "median", Col("v"))

    def test_count_needs_no_expr_others_do(self):
        AggSpec("n", "count")  # fine
        with pytest.raises(ValueError):
            AggSpec("s", "sum")

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                           min_size=1, max_size=200),
           shards=st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_partial_final_sum_property(self, values, shards):
        batch = make_batch(k=["g"] * len(values),
                           v=np.array(values, dtype=np.float64))
        aggs = [AggSpec("s", "sum", Col("v"))]
        complete = HashAggregateOperator(["k"], aggs).execute(batch)
        partials = [
            HashAggregateOperator(["k"], aggs, mode="partial").execute(
                batch.take(np.arange(i, len(values), shards)))
            for i in range(shards)]
        partials = [p for p in partials if p.num_rows]
        merged = HashAggregateOperator(["k"], aggs, mode="final").execute(
            RecordBatch.concat(partials))
        np.testing.assert_allclose(merged.column("s")[0],
                                   complete.column("s")[0], rtol=1e-9)


class TestJoin:
    def test_inner_join_matches(self):
        probe = make_batch(l_orderkey=[1, 2, 3, 2], mode=["A", "B", "C", "D"])
        build = make_batch(o_orderkey=[2, 3], prio=["HIGH", "LOW"])
        op = HashJoinOperator(probe_key="l_orderkey", build_side="orders",
                              build_key="o_orderkey")
        out = op.execute(probe, {"orders": build})
        rows = sorted(zip(out.column("l_orderkey"), out.column("mode"),
                          out.column("prio")))
        assert rows == [(2, "B", "HIGH"), (2, "D", "HIGH"), (3, "C", "LOW")]

    def test_join_without_side_raises(self):
        probe = make_batch(k=[1])
        op = HashJoinOperator("k", "missing", "k")
        with pytest.raises(ValueError, match="side input"):
            op.execute(probe, {})

    def test_join_duplicate_build_keys_multiply(self):
        probe = make_batch(k=[1])
        build = make_batch(bk=[1, 1], tag=["x", "y"])
        op = HashJoinOperator("k", "b", "bk")
        out = op.execute(probe, {"b": build})
        assert sorted(out.column("tag")) == ["x", "y"]


class TestSortLimit:
    def test_multi_key_sort(self):
        batch = make_batch(a=["b", "a", "a"], b=[1, 2, 1])
        out = SortOperator(["a", "b"]).execute(batch)
        assert list(zip(out.column("a"), out.column("b"))) == [
            ("a", 1), ("a", 2), ("b", 1)]

    def test_descending_numeric(self):
        batch = make_batch(v=[1, 3, 2])
        out = SortOperator(["v"], ascending=[False]).execute(batch)
        assert list(out.column("v")) == [3, 2, 1]

    def test_descending_strings(self):
        batch = make_batch(s=["a", "c", "b"])
        out = SortOperator(["s"], ascending=[False]).execute(batch)
        assert list(out.column("s")) == ["c", "b", "a"]

    def test_limit(self):
        batch = make_batch(v=[1, 2, 3])
        assert LimitOperator(2).execute(batch).num_rows == 2
        assert LimitOperator(10).execute(batch).num_rows == 3

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            LimitOperator(-1)


class TestUdf:
    def test_registered_udf_applies(self):
        def double(batch, sides):
            return make_batch(x=batch.column("x"), y=batch.column("x") * 2)

        register_udf("test-double", double)
        batch = make_batch(x=[1, 2])
        out = MapUdfOperator("test-double").execute(batch)
        assert list(out.column("y")) == [2, 4]

    def test_unknown_udf_raises(self):
        with pytest.raises(KeyError, match="not registered"):
            MapUdfOperator("ghost").execute(make_batch(x=[1]))
