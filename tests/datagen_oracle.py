"""The table path's oracle: one partition at a time.

``repro.datagen`` generates a table in one pass (``lineitem_table`` and
its siblings) and ``repro.formats.columnar.store_files`` stores it in
one pass, each partition's chunks views of the table's stored columns.
The tests pin both against the per-partition code kept here, which
generates each partition on its own, stores it with its own copies and
zone-map reductions, and puts it before generating the next:

* ``generate_lineitem``, ``generate_orders``, ``generate_clickstreams``
  and ``generate_item`` generate one partition's rows;
* :data:`GENERATORS` are the per-partition dataset generators, keyed by
  table name, called as ``generator(rows, seed, index, physical_sf)``;
* :func:`store_file` stores one partition;
* :func:`load_table_reference` is ``load_table`` built from them.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.dates import TPCH_CURRENT, TPCH_END, TPCH_START
from repro.datagen.datasets import PartitionInfo, TableMetadata
from repro.datagen.tpch import (
    CUSTOMER_COUNT,
    LINEITEM_SCHEMA,
    ORDER_PRIORITIES,
    ORDERS_SCHEMA,
    SHIP_MODES,
    max_orderkey,
)
from repro.datagen.tpcxbb import (
    CATEGORY_COUNT,
    CLICK_END,
    CLICK_START,
    CLICKSTREAMS_SCHEMA,
    ITEM_COUNT,
    ITEM_SCHEMA,
    PURCHASE_FRACTION,
    USERS_PER_SF,
)
from repro.formats import columnar
from repro.formats.batch import RecordBatch
from repro.formats.columnar import RowGroup, StoredFile
from repro.formats.schema import DataType


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


def _lineitem_generator(rows: int, seed: int, index: int,
                        physical_sf: float) -> RecordBatch:
    return generate_lineitem(rows, seed=seed + index,
                             scale_factor=physical_sf)


def _orders_generator(rows: int, seed: int, index: int,
                      physical_sf: float) -> RecordBatch:
    del physical_sf  # orders own their consecutive key range directly
    first = index * rows + 1
    return generate_orders(rows, seed=seed + index, first_orderkey=first)


def _clickstreams_generator(rows: int, seed: int, index: int,
                            physical_sf: float) -> RecordBatch:
    return generate_clickstreams(rows, seed=seed + index,
                                 scale_factor=physical_sf)


def _item_generator(rows: int, seed: int, index: int,
                    physical_sf: float) -> RecordBatch:
    del physical_sf
    return generate_item(rows, seed=seed)


#: Table name -> ``generator(rows, seed, partition_index, physical_sf)``.
GENERATORS = {
    "lineitem": _lineitem_generator,
    "orders": _orders_generator,
    "clickstreams": _clickstreams_generator,
    "item": _item_generator,
}


def _stored_column(array: np.ndarray, dtype: DataType) -> np.ndarray:
    """``array`` as its chunk is stored, read-only."""
    if dtype is DataType.STRING:
        stored = np.array([str(v) for v in array], dtype=object)
    else:
        stored = array.astype(dtype.numpy_dtype)
    stored.flags.writeable = False
    return stored


def _zone_map(stored: np.ndarray, dtype: DataType) -> tuple:
    """(min, max) of a stored chunk; ``(None, None)`` when it is empty.

    Taken from the stored values, not the batch's: a DATE arrives as
    int64 and is stored as int32, and its zone map must bound what a
    reader gets.
    """
    if len(stored) == 0:
        return None, None
    if dtype is DataType.STRING:
        values = stored.tolist()
        return min(values), max(values)
    return float(np.min(stored)), float(np.max(stored))


def store_file(batch: RecordBatch) -> StoredFile:
    """``batch`` as a :class:`StoredFile` of ``ROW_GROUP_SIZE``-row
    groups. A zero-row batch still has one (empty) row group."""
    row_group_size = columnar.ROW_GROUP_SIZE
    groups = []
    for start in range(0, max(len(batch), 1), row_group_size):
        columns = {field.name: _stored_column(
            batch.column(field.name)[start:start + row_group_size],
            field.dtype) for field in batch.schema}
        groups.append(RowGroup(columns, {
            field.name: _zone_map(columns[field.name], field.dtype)
            for field in batch.schema}))
    return StoredFile(batch.schema, len(batch), tuple(groups))


def partition_files(spec, seed: int) -> list[StoredFile]:
    """Every partition of ``spec`` generated and stored on its own."""
    return [store_file(GENERATORS[spec.name](
        rows, seed, index, spec.physical_scale_factor))
        for index, rows in enumerate(spec.row_counts)]


def load_table_reference(env, storage, spec, seed: int = 1_000):
    """Process: ``load_table`` one partition at a time. Each partition
    is generated, stored and put before the next is generated."""
    metadata = TableMetadata(name=spec.name, schema=spec.schema,
                             service_name=storage.name)
    for index, rows in enumerate(spec.row_counts):
        batch = GENERATORS[spec.name](rows, seed, index,
                                      spec.physical_scale_factor)
        key = f"tables/{spec.name}/part-{index:05d}"
        obj = yield from storage.put(
            key, store_file(batch), size=spec.partition_logical_bytes)
        metadata.partitions.append(PartitionInfo(
            key=obj.key, logical_bytes=spec.partition_logical_bytes,
            rows=rows))
    return metadata
