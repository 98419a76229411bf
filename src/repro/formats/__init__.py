"""Columnar files (Parquet-like) and in-memory record batches.

The Skyrise engine reads base tables stored as columnar files on object
storage (the paper uses Parquet with ZSTD; ours keep their row groups
decoded): row groups of column chunks, per-chunk min/max zone maps,
projection pushdown (read only requested columns) and selection
pushdown (skip row groups whose zone maps cannot match a predicate).
"""

from repro.formats.schema import DataType, Field, Schema
from repro.formats.batch import RecordBatch
from repro.formats.columnar import StoredFile, store_file

__all__ = [
    "DataType",
    "Field",
    "RecordBatch",
    "Schema",
    "StoredFile",
    "store_file",
]
