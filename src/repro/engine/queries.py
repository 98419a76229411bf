"""The paper's query suite: TPC-H Q1, Q6, Q12 and TPCx-BB Q3.

These queries are I/O-heavy and deliberately avoid optimizations that
would hide resource behaviour (Section 3.1). Each builder returns a
:class:`~repro.engine.plan.PhysicalPlan`; fragment counts can be forced
to mirror the paper's configurations (201 workers for Q6, 284/320 for
Q12, etc.) or left to the coordinator's burst-aware sizing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datagen.dates import date_to_days
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
from repro.engine.plan import (
    PhysicalPlan,
    PipelineSpec,
    ResultSink,
    ShuffleSink,
    ShuffleSource,
    TableSource,
)
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema


def tpch_q1(scan_fragments: Optional[int] = None) -> PhysicalPlan:
    """TPC-H Q1: scan-heavy aggregation over lineitem."""
    cutoff = date_to_days(1998, 9, 2)
    columns = ["l_returnflag", "l_linestatus", "l_quantity",
               "l_extendedprice", "l_discount", "l_tax", "l_shipdate"]
    disc_price = BinOp("*", Col("l_extendedprice"),
                       BinOp("-", Lit(1.0), Col("l_discount")))
    charge = BinOp("*", disc_price, BinOp("+", Lit(1.0), Col("l_tax")))
    aggs = [
        AggSpec("sum_qty", "sum", Col("l_quantity")),
        AggSpec("sum_base_price", "sum", Col("l_extendedprice")),
        AggSpec("sum_disc_price", "sum", disc_price),
        AggSpec("sum_charge", "sum", charge),
        AggSpec("avg_qty", "avg", Col("l_quantity")),
        AggSpec("avg_price", "avg", Col("l_extendedprice")),
        AggSpec("avg_disc", "avg", Col("l_discount")),
        AggSpec("count_order", "count"),
    ]
    scan = PipelineSpec(
        id="scan",
        source=TableSource(table="lineitem", columns=columns,
                           zone_map_column="l_shipdate",
                           zone_map_high=cutoff),
        operators=[
            FilterOperator(Compare("<=", Col("l_shipdate"), Lit(cutoff))),
            HashAggregateOperator(["l_returnflag", "l_linestatus"], aggs,
                                  mode="partial"),
        ],
        sink=ShuffleSink(partition_key="l_returnflag"),
        fragments=scan_fragments)
    final = PipelineSpec(
        id="final",
        source=ShuffleSource(inputs={"main": "scan"}, main="main"),
        operators=[
            HashAggregateOperator(["l_returnflag", "l_linestatus"], aggs,
                                  mode="final"),
            SortOperator(["l_returnflag", "l_linestatus"]),
        ],
        sink=ResultSink(), depends_on=["scan"], fragments=1)
    return PhysicalPlan(query_id="tpch-q1", pipelines=[scan, final])


def tpch_q6(scan_fragments: Optional[int] = None) -> PhysicalPlan:
    """TPC-H Q6: selective scan plus global revenue aggregation."""
    low = date_to_days(1994, 1, 1)
    high = date_to_days(1995, 1, 1)
    columns = ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]
    predicate = And(
        Compare(">=", Col("l_shipdate"), Lit(low)),
        Compare("<", Col("l_shipdate"), Lit(high)),
        Between(Col("l_discount"), 0.05, 0.07),
        Compare("<", Col("l_quantity"), Lit(24.0)),
    )
    revenue = BinOp("*", Col("l_extendedprice"), Col("l_discount"))
    scan = PipelineSpec(
        id="scan",
        source=TableSource(table="lineitem", columns=columns,
                           zone_map_column="l_shipdate",
                           zone_map_low=low, zone_map_high=high),
        operators=[
            FilterOperator(predicate),
            HashAggregateOperator([], [AggSpec("revenue", "sum", revenue)],
                                  mode="partial"),
        ],
        sink=ShuffleSink(), fragments=scan_fragments)
    final = PipelineSpec(
        id="final",
        source=ShuffleSource(inputs={"main": "scan"}, main="main"),
        operators=[
            HashAggregateOperator([], [AggSpec("revenue", "sum", revenue)],
                                  mode="final"),
        ],
        sink=ResultSink(), depends_on=["scan"], fragments=1)
    return PhysicalPlan(query_id="tpch-q6", pipelines=[scan, final])


def tpch_q12(lineitem_fragments: Optional[int] = None,
             orders_fragments: Optional[int] = None,
             join_fragments: Optional[int] = None,
             barrier_on_join: bool = False) -> PhysicalPlan:
    """TPC-H Q12: shuffle join of lineitem and orders by order key."""
    low = date_to_days(1994, 1, 1)
    high = date_to_days(1995, 1, 1)
    lineitem_columns = ["l_orderkey", "l_shipmode", "l_shipdate",
                        "l_commitdate", "l_receiptdate"]
    predicate = And(
        InSet(Col("l_shipmode"), ["MAIL", "SHIP"]),
        Compare("<", Col("l_commitdate"), Col("l_receiptdate")),
        Compare("<", Col("l_shipdate"), Col("l_commitdate")),
        Compare(">=", Col("l_receiptdate"), Lit(low)),
        Compare("<", Col("l_receiptdate"), Lit(high)),
    )
    scan_lineitem = PipelineSpec(
        id="scan_lineitem",
        source=TableSource(table="lineitem", columns=lineitem_columns,
                           zone_map_column="l_receiptdate",
                           zone_map_low=low, zone_map_high=high),
        operators=[
            FilterOperator(predicate),
            ProjectOperator([
                ("l_orderkey", Col("l_orderkey"), DataType.INT64),
                ("l_shipmode", Col("l_shipmode"), DataType.STRING),
            ]),
        ],
        sink=ShuffleSink(partition_key="l_orderkey"),
        fragments=lineitem_fragments)
    scan_orders = PipelineSpec(
        id="scan_orders",
        source=TableSource(table="orders",
                           columns=["o_orderkey", "o_orderpriority"]),
        sink=ShuffleSink(partition_key="o_orderkey"),
        fragments=orders_fragments)
    high_priority = InSet(Col("o_orderpriority"), ["1-URGENT", "2-HIGH"])
    join = PipelineSpec(
        id="join",
        source=ShuffleSource(
            inputs={"main": "scan_lineitem", "orders": "scan_orders"},
            main="main"),
        operators=[
            HashJoinOperator(probe_key="l_orderkey", build_side="orders",
                             build_key="o_orderkey"),
            ProjectOperator([
                ("l_shipmode", Col("l_shipmode"), DataType.STRING),
                ("high_line", IfThenElse(high_priority, Lit(1.0), Lit(0.0)),
                 DataType.FLOAT64),
                ("low_line", IfThenElse(high_priority, Lit(0.0), Lit(1.0)),
                 DataType.FLOAT64),
            ]),
            HashAggregateOperator(
                ["l_shipmode"],
                [AggSpec("high_line_count", "sum", Col("high_line")),
                 AggSpec("low_line_count", "sum", Col("low_line"))],
                mode="partial"),
        ],
        sink=ShuffleSink(partition_key="l_shipmode"),
        depends_on=["scan_lineitem", "scan_orders"],
        fragments=join_fragments, barrier=barrier_on_join)
    final = PipelineSpec(
        id="final",
        source=ShuffleSource(inputs={"main": "join"}, main="main"),
        operators=[
            HashAggregateOperator(
                ["l_shipmode"],
                [AggSpec("high_line_count", "sum", Col("high_line_count")),
                 AggSpec("low_line_count", "sum", Col("low_line_count"))],
                mode="final"),
            SortOperator(["l_shipmode"]),
        ],
        sink=ResultSink(), depends_on=["join"], fragments=1)
    return PhysicalPlan(query_id="tpch-q12",
                        pipelines=[scan_lineitem, scan_orders, join, final])


#: TPCx-BB Q3 parameters: target category and session lookback length.
BB_Q3_CATEGORY = 3
BB_Q3_LOOKBACK = 5
BB_Q3_TOP_K = 30


def _bb_q3_sessionize(batch: RecordBatch, sides: dict) -> RecordBatch:
    """Per-user sessionization UDF for TPCx-BB Q3.

    For every purchase of an item in the target category, emit the
    distinct items viewed within the user's last ``BB_Q3_LOOKBACK``
    preceding clicks.
    """
    item = sides["item"]
    category = dict(zip(item.column("i_item_sk"),
                        item.column("i_category_id")))
    users = batch.column("wcs_user_sk")
    dates = batch.column("wcs_click_date_sk")
    times = batch.column("wcs_click_time_sk")
    items = batch.column("wcs_item_sk")
    sales = batch.column("wcs_sales_sk")
    order = np.lexsort((times, dates, users))
    emitted: list[int] = []
    window: list[int] = []
    current_user = None
    for row in order:
        user = users[row]
        if user != current_user:
            current_user = user
            window = []
        if sales[row] > 0 and category.get(items[row]) == BB_Q3_CATEGORY:
            # sorted(): the dedup set would otherwise emit in hash order.
            emitted.extend(sorted(set(window[-BB_Q3_LOOKBACK:])))
        window.append(int(items[row]))
    schema = Schema([Field("item_sk", DataType.INT64)])
    return RecordBatch(schema,
                       {"item_sk": np.array(emitted, dtype=np.int64)})


register_udf("bb_q3_sessionize", _bb_q3_sessionize)


def tpcxbb_q3(scan_fragments: Optional[int] = None) -> PhysicalPlan:
    """TPCx-BB Q3: sessionized viewed-before-purchase item counts."""
    scan = PipelineSpec(
        id="scan_clicks",
        source=TableSource(
            table="clickstreams",
            columns=["wcs_click_date_sk", "wcs_click_time_sk",
                     "wcs_user_sk", "wcs_item_sk", "wcs_sales_sk"]),
        sink=ShuffleSink(partition_key="wcs_user_sk"),
        fragments=scan_fragments)
    sessionize = PipelineSpec(
        id="sessionize",
        source=ShuffleSource(inputs={"main": "scan_clicks"}, main="main"),
        side_tables={"item": "item"},
        operators=[
            MapUdfOperator("bb_q3_sessionize"),
            HashAggregateOperator(
                ["item_sk"], [AggSpec("views", "count")], mode="partial"),
        ],
        sink=ShuffleSink(partition_key="item_sk"),
        depends_on=["scan_clicks"])
    final = PipelineSpec(
        id="final",
        source=ShuffleSource(inputs={"main": "sessionize"}, main="main"),
        operators=[
            HashAggregateOperator(
                ["item_sk"], [AggSpec("views", "count")], mode="final"),
            SortOperator(["views", "item_sk"], ascending=[False, True]),
            LimitOperator(BB_Q3_TOP_K),
        ],
        sink=ResultSink(), depends_on=["sessionize"], fragments=1)
    return PhysicalPlan(query_id="tpcxbb-q3",
                        pipelines=[scan, sessionize, final])


QUERY_BUILDERS = {
    "tpch-q1": tpch_q1,
    "tpch-q6": tpch_q6,
    "tpch-q12": tpch_q12,
    "tpcxbb-q3": tpcxbb_q3,
}
