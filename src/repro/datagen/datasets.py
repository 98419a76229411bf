"""Dataset specifications, partitioning, and loading onto storage.

Encodes Table 4 of the paper — the SF1000 datasets with their partition
counts and sizes — and provides :func:`load_table`, which generates a
table's partitions in one pass, stores each as a columnar file and puts
it with the *logical* partition size (what simulated I/O and pricing
see) while keeping the physical rows small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import units
from repro.datagen import tpch, tpcxbb
from repro.formats.batch import RecordBatch
from repro.formats.columnar import store_files
from repro.formats.schema import Schema
from repro.storage.base import StorageService


@dataclass(frozen=True)
class DatasetSpec:
    """A table at a given (logical) scale."""

    name: str
    schema: Schema
    #: Logical total size of the compressed dataset (Table 4).
    total_logical_bytes: float
    #: Number of partition files.
    partition_count: int
    #: Physically materialized rows across all partitions.
    physical_rows: int
    #: generator(row_counts, seed, physical_sf) -> the table's rows, in
    #: partition order; partition ``i`` draws from ``seed + i``.
    generator: Callable[[Sequence[int], int, float], RecordBatch]

    @property
    def physical_scale_factor(self) -> float:
        """Scale factor implied by the *physical* row count.

        Key domains (order keys, user keys) are sized to this factor, so
        shrunken tables stay join-compatible: a lineitem table with N
        physical rows draws order keys from the key range an orders table
        of matching physical scale actually holds.
        """
        nominal = NOMINAL_ROWS_PER_SF.get(self.name)
        if nominal is None:
            return SCALE_FACTOR
        return max(self.physical_rows / nominal, 1e-6)

    @property
    def partition_logical_bytes(self) -> float:
        """Mean logical size of one partition file."""
        return self.total_logical_bytes / self.partition_count

    @property
    def row_counts(self) -> list[int]:
        """Physical rows of each partition, in index order: the first
        ``physical_rows % partition_count`` partitions hold one more."""
        base, remainder = divmod(self.physical_rows, self.partition_count)
        return [base + (1 if index < remainder else 0)
                for index in range(self.partition_count)]


@dataclass
class PartitionInfo:
    """One stored partition file of a table."""

    key: str
    logical_bytes: float
    rows: int


@dataclass
class TableMetadata:
    """Catalog entry: where a table's partitions live and how big they are."""

    name: str
    schema: Schema
    partitions: list[PartitionInfo] = field(default_factory=list)
    service_name: str = "s3-standard"

    @property
    def total_logical_bytes(self) -> float:
        """Sum of logical partition sizes."""
        return sum(p.logical_bytes for p in self.partitions)

    @property
    def total_rows(self) -> int:
        """Sum of physical row counts."""
        return sum(p.rows for p in self.partitions)

    @property
    def partition_count(self) -> int:
        """Number of partition files."""
        return len(self.partitions)


#: Logical scale factor of every dataset (Table 4).
SCALE_FACTOR = 1000.0

#: Physical rows one TPC scale-factor unit implies, per table. Used to
#: derive consistent key domains at any physical scale.
NOMINAL_ROWS_PER_SF: dict[str, float] = {
    "lineitem": 6_000_000.0,
    "orders": 1_500_000.0,
    "clickstreams": 1_000_000.0,
}


def _orders_generator(row_counts: Sequence[int], seed: int,
                      physical_sf: float) -> RecordBatch:
    del physical_sf  # orders own their consecutive key range directly
    return tpch.orders_table(row_counts, seed, [
        index * rows + 1 for index, rows in enumerate(row_counts)])


def _item_generator(row_counts: Sequence[int], seed: int,
                    physical_sf: float) -> RecordBatch:
    del physical_sf
    return tpcxbb.item_table(row_counts, seed)


#: Table 4: datasets used in the experiments (SF1000, ZSTD Parquet sizes).
TPCH_SF1000: dict[str, DatasetSpec] = {
    "lineitem": DatasetSpec(
        name="lineitem", schema=tpch.LINEITEM_SCHEMA,
        total_logical_bytes=177.4 * units.GiB, partition_count=996,
        physical_rows=996 * 64, generator=tpch.lineitem_table),
    "orders": DatasetSpec(
        name="orders", schema=tpch.ORDERS_SCHEMA,
        total_logical_bytes=44.9 * units.GiB, partition_count=249,
        physical_rows=249 * 64, generator=_orders_generator),
    "clickstreams": DatasetSpec(
        name="clickstreams", schema=tpcxbb.CLICKSTREAMS_SCHEMA,
        total_logical_bytes=94.9 * units.GiB, partition_count=1_000,
        physical_rows=1_000 * 64, generator=tpcxbb.clickstreams_table),
    "item": DatasetSpec(
        name="item", schema=tpcxbb.ITEM_SCHEMA,
        total_logical_bytes=75.8 * units.MiB, partition_count=1,
        physical_rows=tpcxbb.ITEM_COUNT, generator=_item_generator),
}


def scaled_spec(name: str, partitions: int, rows_per_partition: int = 256,
               ) -> DatasetSpec:
    """A shrunken spec for tests: fewer partitions, same logical density.

    Partition logical sizes stay at the SF1000 per-partition values so
    per-worker behaviour (burst budgets, request counts per partition)
    matches the paper even when the partition count is reduced.
    Partitions may hold no rows, but there must be at least one.
    """
    if partitions < 1:
        raise ValueError(f"partitions must be at least 1, got {partitions}")
    if rows_per_partition < 0:
        raise ValueError("rows_per_partition must not be negative, got "
                         f"{rows_per_partition}")
    base = TPCH_SF1000[name]
    partitions = min(partitions, base.partition_count)
    physical_rows = rows_per_partition * partitions
    if name == "item":
        # The item dimension is fixed-size: shrinking it would leave the
        # clickstream's item references dangling and starve category
        # lookups, so it always materializes fully.
        physical_rows = base.physical_rows
    return DatasetSpec(
        name=base.name, schema=base.schema,
        total_logical_bytes=base.partition_logical_bytes * partitions,
        partition_count=partitions,
        physical_rows=physical_rows,
        generator=base.generator)


def load_table(env, storage: StorageService, spec: DatasetSpec,
               seed: int = 1_000):
    """Process: generate and store every partition of ``spec``.

    The table is generated and stored in one pass (its columns are
    converted once, and each partition's
    :class:`~repro.formats.columnar.StoredFile` holds read-only views of
    them); then the partitions are put on ``storage`` in index order,
    each with the logical SF1000 partition size, so each pays admission,
    latency and transfer and counts in the service's stats like any
    other write. Returns a :class:`TableMetadata` whose partitions carry
    those logical sizes.
    """
    metadata = TableMetadata(name=spec.name, schema=spec.schema,
                             service_name=storage.name)
    row_counts = spec.row_counts
    files = store_files(
        spec.generator(row_counts, seed, spec.physical_scale_factor),
        row_counts)
    for index, (rows, file) in enumerate(zip(row_counts, files)):
        key = f"tables/{spec.name}/part-{index:05d}"
        obj = yield from storage.put(
            key, file, size=spec.partition_logical_bytes)
        metadata.partitions.append(PartitionInfo(
            key=obj.key, logical_bytes=spec.partition_logical_bytes,
            rows=rows))
    return metadata
