"""Columnar file format (Parquet-like) and in-memory record batches.

The Skyrise engine reads base tables stored as columnar files on object
storage (the paper uses Parquet with ZSTD; we implement an equivalent
container with zlib): row groups of column chunks, a footer with schema
and per-chunk min/max zone maps, projection pushdown (read only requested
columns) and selection pushdown (skip row groups whose zone maps cannot
match a predicate).
"""

from repro.formats.schema import DataType, Field, Schema
from repro.formats.batch import RecordBatch
from repro.formats.columnar import (
    FileMetadata,
    read_file,
    read_metadata,
    write_file,
)

__all__ = [
    "DataType",
    "Field",
    "FileMetadata",
    "RecordBatch",
    "Schema",
    "read_file",
    "read_metadata",
    "write_file",
]
