"""TPCx-BB table generators (web clickstreams, item).

Covers what Q3 touches: a clickstream fact table (user, item, date,
optional sale) and the item dimension with category ids. Q3 is the
paper's "I/O-bound MapReduce job": sessionize clicks per user with a UDF
and count which items were viewed shortly before a purchase in a target
category.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.dates import date_to_days
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


def generate_clickstreams(rows: int, seed: int,
                          scale_factor: float = 1.0) -> RecordBatch:
    """Generate ``rows`` click events (one partition's worth)."""
    rng = np.random.default_rng(seed)
    users = rng.integers(1, int(USERS_PER_SF * max(scale_factor, 1e-3)) + 1,
                         rows, dtype=np.int64)
    items = rng.integers(1, ITEM_COUNT + 1, rows, dtype=np.int64)
    dates = rng.integers(CLICK_START, CLICK_END, rows).astype(np.int32)
    times = rng.integers(0, 86_400, rows, dtype=np.int64)
    is_sale = rng.random(rows) < PURCHASE_FRACTION
    sales = np.where(is_sale,
                     rng.integers(1, 2**31, rows, dtype=np.int64), 0)
    return RecordBatch(CLICKSTREAMS_SCHEMA, {
        "wcs_click_date_sk": dates,
        "wcs_click_time_sk": times,
        "wcs_user_sk": users,
        "wcs_item_sk": items,
        "wcs_sales_sk": sales,
    })


def generate_item(rows: int = ITEM_COUNT, seed: int = 0) -> RecordBatch:
    """Generate the item dimension (single small partition)."""
    rng = np.random.default_rng(seed)
    item_sk = np.arange(1, rows + 1, dtype=np.int64)
    category = rng.integers(1, CATEGORY_COUNT + 1, rows, dtype=np.int64)
    return RecordBatch(ITEM_SCHEMA, {
        "i_item_sk": item_sk,
        "i_category_id": category,
    })
