"""Deterministic TPC-H and TPCx-BB data generation.

Generates the tables the paper's query suite touches (Table 4): TPC-H
``lineitem`` and ``orders``, TPCx-BB ``clickstreams`` and ``item``. Data
is drawn per partition from a seeded stream, so any partition can be
produced independently and reproducibly; a table's partitions are
generated, and stored, in one pass.

The *logical scale knob*: partition files carry the byte sizes of the
paper's SF1000 datasets (what simulated I/O and cost are computed from)
while the physically materialized rows stay laptop-sized (what query
results are computed from and validated against a reference executor).
"""

from repro.datagen.tpch import (
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    generate_lineitem,
    generate_orders,
)
from repro.datagen.tpcxbb import (
    CLICKSTREAMS_SCHEMA,
    ITEM_SCHEMA,
    generate_clickstreams,
    generate_item,
)
from repro.datagen.datasets import (
    DatasetSpec,
    PartitionInfo,
    TableMetadata,
    load_table,
    TPCH_SF1000,
    scaled_spec,
)

__all__ = [
    "CLICKSTREAMS_SCHEMA",
    "DatasetSpec",
    "ITEM_SCHEMA",
    "LINEITEM_SCHEMA",
    "ORDERS_SCHEMA",
    "PartitionInfo",
    "TPCH_SF1000",
    "TableMetadata",
    "generate_clickstreams",
    "generate_item",
    "generate_lineitem",
    "generate_orders",
    "load_table",
    "scaled_spec",
]
