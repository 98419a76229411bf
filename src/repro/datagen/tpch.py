"""TPC-H table generators (lineitem, orders).

Column subsets cover everything Q1, Q6, and Q12 touch, with value
distributions following the TPC-H specification's shapes: uniform order
dates over 1992-1998, ship/commit/receipt offsets, price-from-quantity,
and the returnflag/linestatus rules relative to the 1995-06-17 pivot.
"""

from __future__ import annotations

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


def generate_lineitem(rows: int, seed: int,
                      scale_factor: float = 1.0) -> RecordBatch:
    """Generate ``rows`` lineitem rows (one partition's worth)."""
    rng = np.random.default_rng(seed)
    orderkey = rng.integers(1, max_orderkey(scale_factor) + 1, rows,
                            dtype=np.int64)
    quantity = rng.integers(1, 51, rows).astype(np.float64)
    # extendedprice = quantity * part retail price (~900..100k).
    unit_price = 900.0 + rng.random(rows) * 1100.0
    extendedprice = np.round(quantity * unit_price, 2)
    discount = np.round(rng.integers(0, 11, rows) / 100.0, 2)
    tax = np.round(rng.integers(0, 9, rows) / 100.0, 2)
    orderdate = rng.integers(TPCH_START, TPCH_END - 151, rows)
    shipdate = (orderdate + rng.integers(1, 122, rows)).astype(np.int32)
    commitdate = (orderdate + rng.integers(30, 91, rows)).astype(np.int32)
    receiptdate = (shipdate + rng.integers(1, 31, rows)).astype(np.int32)
    linestatus = np.where(shipdate <= TPCH_CURRENT, "F", "O").astype(object)
    returned = rng.random(rows) < 0.5
    returnflag = np.where(
        receiptdate <= TPCH_CURRENT,
        np.where(returned, "R", "A"), "N").astype(object)
    shipmode = SHIP_MODES[rng.integers(0, len(SHIP_MODES), rows)]
    return RecordBatch(LINEITEM_SCHEMA, {
        "l_orderkey": orderkey,
        "l_quantity": quantity,
        "l_extendedprice": extendedprice,
        "l_discount": discount,
        "l_tax": tax,
        "l_returnflag": returnflag,
        "l_linestatus": linestatus,
        "l_shipdate": shipdate,
        "l_commitdate": commitdate,
        "l_receiptdate": receiptdate,
        "l_shipmode": shipmode,
    })


def generate_orders(rows: int, seed: int,
                    first_orderkey: int = 1) -> RecordBatch:
    """Generate ``rows`` orders with consecutive keys from
    ``first_orderkey`` (partitions own disjoint key ranges)."""
    rng = np.random.default_rng(seed)
    orderkey = np.arange(first_orderkey, first_orderkey + rows,
                         dtype=np.int64)
    custkey = rng.integers(1, CUSTOMER_COUNT + 1, rows, dtype=np.int64)
    orderdate = rng.integers(TPCH_START, TPCH_END - 151, rows).astype(np.int32)
    priority = ORDER_PRIORITIES[rng.integers(0, len(ORDER_PRIORITIES), rows)]
    totalprice = np.round(rng.random(rows) * 450_000.0 + 850.0, 2)
    return RecordBatch(ORDERS_SCHEMA, {
        "o_orderkey": orderkey,
        "o_custkey": custkey,
        "o_orderdate": orderdate,
        "o_orderpriority": priority,
        "o_totalprice": totalprice,
    })
