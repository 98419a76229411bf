"""TPC-H table generators (lineitem, orders).

Column subsets cover everything Q1, Q6, and Q12 touch, with value
distributions following the TPC-H specification's shapes: uniform order
dates over 1992-1998, ship/commit/receipt offsets, price-from-quantity,
and the returnflag/linestatus rules relative to the 1995-06-17 pivot.

A generator builds a whole table in one pass. Partition ``i`` of
``row_counts`` draws its rows from ``np.random.default_rng(seed + i)``,
so each partition's values depend only on its seed and size; the
arithmetic after the draws runs once over all partitions' rows.
``generate_lineitem`` and ``generate_orders`` are the one-partition
case.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.datagen.dates import TPCH_CURRENT, TPCH_END, TPCH_START
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema

LINEITEM_SCHEMA = Schema([
    Field("l_orderkey", DataType.INT64),
    Field("l_quantity", DataType.FLOAT64),
    Field("l_extendedprice", DataType.FLOAT64),
    Field("l_discount", DataType.FLOAT64),
    Field("l_tax", DataType.FLOAT64),
    Field("l_returnflag", DataType.STRING),
    Field("l_linestatus", DataType.STRING),
    Field("l_shipdate", DataType.DATE),
    Field("l_commitdate", DataType.DATE),
    Field("l_receiptdate", DataType.DATE),
    Field("l_shipmode", DataType.STRING),
])

ORDERS_SCHEMA = Schema([
    Field("o_orderkey", DataType.INT64),
    Field("o_custkey", DataType.INT64),
    Field("o_orderdate", DataType.DATE),
    Field("o_orderpriority", DataType.STRING),
    Field("o_totalprice", DataType.FLOAT64),
])

SHIP_MODES = np.array(["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL",
                       "FOB"], dtype=object)
ORDER_PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"], dtype=object)

#: Orders per TPC-H scale factor (1.5M orders / SF).
ORDERS_PER_SF = 1_500_000
#: Customer keys orders draw from (the 150K customers of SF1).
CUSTOMER_COUNT = 150_000
#: Average lineitems per order (1..7 uniform).
LINEITEMS_PER_ORDER = 4.0


def max_orderkey(scale_factor: float) -> int:
    """Largest order key in a dataset of the given scale factor."""
    return max(1, int(ORDERS_PER_SF * scale_factor))


def partition_draws(row_counts: Sequence[int], seed: int,
                    draw: Callable[[np.random.Generator, int], tuple],
                    ) -> list[np.ndarray]:
    """``draw(rng, rows)`` for each partition, column by column
    concatenated in partition order. Partition ``i`` draws from
    ``np.random.default_rng(seed + i)``."""
    parts = [draw(np.random.default_rng(seed + index), rows)
             for index, rows in enumerate(row_counts)]
    return [np.concatenate(column) for column in zip(*parts)]


def lineitem_table(row_counts: Sequence[int], seed: int,
                   scale_factor: float) -> RecordBatch:
    """The lineitem rows of partitions of ``row_counts`` rows, in
    partition order."""
    keys = max_orderkey(scale_factor) + 1
    (orderkey, quantity, price_draw, discount, tax, orderdate, ship_days,
     commit_days, receipt_days, return_draw, shipmode) = partition_draws(
        row_counts, seed, lambda rng, rows: (
            rng.integers(1, keys, rows, dtype=np.int64),
            rng.integers(1, 51, rows),
            rng.random(rows),
            rng.integers(0, 11, rows),
            rng.integers(0, 9, rows),
            rng.integers(TPCH_START, TPCH_END - 151, rows),
            rng.integers(1, 122, rows),
            rng.integers(30, 91, rows),
            rng.integers(1, 31, rows),
            rng.random(rows),
            rng.integers(0, len(SHIP_MODES), rows)))
    quantity = quantity.astype(np.float64)
    # extendedprice = quantity * part retail price (~900..100k).
    unit_price = 900.0 + price_draw * 1100.0
    shipdate = (orderdate + ship_days).astype(np.int32)
    receiptdate = (shipdate + receipt_days).astype(np.int32)
    returnflag = np.where(
        receiptdate <= TPCH_CURRENT,
        np.where(return_draw < 0.5, "R", "A"), "N").astype(object)
    return RecordBatch(LINEITEM_SCHEMA, {
        "l_orderkey": orderkey,
        "l_quantity": quantity,
        "l_extendedprice": np.round(quantity * unit_price, 2),
        "l_discount": np.round(discount / 100.0, 2),
        "l_tax": np.round(tax / 100.0, 2),
        "l_returnflag": returnflag,
        "l_linestatus": np.where(shipdate <= TPCH_CURRENT, "F",
                                 "O").astype(object),
        "l_shipdate": shipdate,
        "l_commitdate": (orderdate + commit_days).astype(np.int32),
        "l_receiptdate": receiptdate,
        "l_shipmode": SHIP_MODES[shipmode],
    })


def generate_lineitem(rows: int, seed: int,
                      scale_factor: float) -> RecordBatch:
    """Generate ``rows`` lineitem rows (one partition's worth)."""
    return lineitem_table([rows], seed, scale_factor)


def orders_table(row_counts: Sequence[int], seed: int,
                 first_orderkeys: Sequence[int]) -> RecordBatch:
    """The orders of partitions of ``row_counts`` rows, in partition
    order; partition ``i`` holds consecutive keys from
    ``first_orderkeys[i]``."""
    custkey, orderdate, priority, price_draw = partition_draws(
        row_counts, seed, lambda rng, rows: (
            rng.integers(1, CUSTOMER_COUNT + 1, rows, dtype=np.int64),
            rng.integers(TPCH_START, TPCH_END - 151, rows),
            rng.integers(0, len(ORDER_PRIORITIES), rows),
            rng.random(rows)))
    counts = np.asarray(row_counts, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    orderkey = np.arange(len(custkey), dtype=np.int64) + np.repeat(
        np.asarray(first_orderkeys, dtype=np.int64) - offsets, counts)
    return RecordBatch(ORDERS_SCHEMA, {
        "o_orderkey": orderkey,
        "o_custkey": custkey,
        "o_orderdate": orderdate.astype(np.int32),
        "o_orderpriority": ORDER_PRIORITIES[priority],
        "o_totalprice": np.round(price_draw * 450_000.0 + 850.0, 2),
    })


def generate_orders(rows: int, seed: int,
                    first_orderkey: int) -> RecordBatch:
    """Generate ``rows`` orders with consecutive keys from
    ``first_orderkey`` (one partition's worth)."""
    return orders_table([rows], seed, [first_orderkey])
