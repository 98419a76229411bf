"""TPCx-BB table generators (web clickstreams, item).

Covers what Q3 touches: a clickstream fact table (user, item, date,
optional sale) and the item dimension with category ids. Q3 is the
paper's "I/O-bound MapReduce job": sessionize clicks per user with a UDF
and count which items were viewed shortly before a purchase in a target
category.

Like the TPC-H generators (``repro.datagen.tpch``), a generator builds
a whole table in one pass, partition ``i`` drawing from
``np.random.default_rng(seed + i)``; ``generate_clickstreams`` and
``generate_item`` are the one-partition case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datagen.dates import date_to_days
from repro.datagen.tpch import partition_draws
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema

CLICKSTREAMS_SCHEMA = Schema([
    Field("wcs_click_date_sk", DataType.DATE),
    Field("wcs_click_time_sk", DataType.INT64),
    Field("wcs_user_sk", DataType.INT64),
    Field("wcs_item_sk", DataType.INT64),
    Field("wcs_sales_sk", DataType.INT64),  # 0 = view only, >0 = purchase
])

ITEM_SCHEMA = Schema([
    Field("i_item_sk", DataType.INT64),
    Field("i_category_id", DataType.INT64),
])

#: Clickstream date range (arbitrary but fixed).
CLICK_START = date_to_days(2001, 1, 1)
CLICK_END = date_to_days(2003, 12, 31)

#: Dimension cardinalities at SF1 (scaled linearly for users).
USERS_PER_SF = 100_000
ITEM_COUNT = 18_000
CATEGORY_COUNT = 10

#: Fraction of clicks that are purchases.
PURCHASE_FRACTION = 0.04


def clickstreams_table(row_counts: Sequence[int], seed: int,
                       scale_factor: float) -> RecordBatch:
    """The click events of partitions of ``row_counts`` rows, in
    partition order."""
    users = int(USERS_PER_SF * max(scale_factor, 1e-3)) + 1
    user, item, date, time, sale_draw, sale = partition_draws(
        row_counts, seed, lambda rng, rows: (
            rng.integers(1, users, rows, dtype=np.int64),
            rng.integers(1, ITEM_COUNT + 1, rows, dtype=np.int64),
            rng.integers(CLICK_START, CLICK_END, rows),
            rng.integers(0, 86_400, rows, dtype=np.int64),
            rng.random(rows),
            rng.integers(1, 2**31, rows, dtype=np.int64)))
    return RecordBatch(CLICKSTREAMS_SCHEMA, {
        "wcs_click_date_sk": date.astype(np.int32),
        "wcs_click_time_sk": time,
        "wcs_user_sk": user,
        "wcs_item_sk": item,
        "wcs_sales_sk": np.where(sale_draw < PURCHASE_FRACTION, sale, 0),
    })


def generate_clickstreams(rows: int, seed: int,
                          scale_factor: float) -> RecordBatch:
    """Generate ``rows`` click events (one partition's worth)."""
    return clickstreams_table([rows], seed, scale_factor)


def item_table(row_counts: Sequence[int], seed: int) -> RecordBatch:
    """The item dimension over partitions of ``row_counts`` rows, keys
    numbered from 1 (Table 4 stores it as one partition)."""
    [category] = partition_draws(row_counts, seed, lambda rng, rows: (
        rng.integers(1, CATEGORY_COUNT + 1, rows, dtype=np.int64),))
    return RecordBatch(ITEM_SCHEMA, {
        "i_item_sk": np.arange(1, len(category) + 1, dtype=np.int64),
        "i_category_id": category,
    })


def generate_item(rows: int, seed: int) -> RecordBatch:
    """Generate the item dimension (single small partition)."""
    return item_table([rows], seed)
