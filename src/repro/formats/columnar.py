"""The columnar file: row groups of column chunks with min/max zone maps.

A base-table partition is stored as a :class:`StoredFile`: its rows cut
into row groups, each column of a group held as the array a reader
gets (numbers as their ``numpy_dtype``, strings as object arrays of
``str``) with the (min, max) zone map of those stored values. A table
is stored in one pass (:func:`store_files`): each column is converted
once, and every partition's chunks are read-only views of it. Readers
take only the columns their projection needs and skip row groups whose
zone maps cannot satisfy the predicate (projection and selection
pushdown, Section 3.2). No simulated quantity depends on encoded bytes
(storage sizes are logical), so nothing is encoded at load or decoded
at scan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.formats.batch import RecordBatch, read_only
from repro.formats.schema import DataType, Schema

ROW_GROUP_SIZE = 64 * 1024


#: A zone-map predicate: given (min, max), may the chunk contain matches?
ZoneMapPredicate = Callable[[Optional[float | str], Optional[float | str]], bool]
ZoneMapFilters = Optional[dict[str, ZoneMapPredicate]]


def _passes(zone_maps: dict[str, tuple], filters: ZoneMapFilters) -> bool:
    """Whether a row group with these zone maps may match every filter
    (a filter on a column the file lacks never skips)."""
    for column, predicate in (filters or {}).items():
        bounds = zone_maps.get(column)
        if bounds is not None and not predicate(*bounds):
            return False
    return True


def _assemble(schema: Schema,
              groups: list[dict[str, np.ndarray]]) -> RecordBatch:
    """``schema``'s columns of the kept row groups, in order. A column
    of one group is that group's array itself, not a copy."""
    arrays = {}
    for field in schema:
        pieces = [group[field.name] for group in groups]
        if len(pieces) == 1:
            arrays[field.name] = pieces[0]
        elif pieces:
            arrays[field.name] = np.concatenate(pieces)
        else:
            arrays[field.name] = np.empty(0, dtype=field.dtype.numpy_dtype)
    return RecordBatch(schema, arrays)


@dataclass(frozen=True)
class RowGroup:
    """One row group of a :class:`StoredFile`."""

    #: Column name -> the stored chunk (numbers as their ``numpy_dtype``,
    #: strings as object arrays of ``str``), read-only.
    columns: dict[str, np.ndarray]
    #: Column name -> (min, max) of the stored chunk, as :func:`_zone_maps`
    #: has it.
    zone_maps: dict[str, tuple]


@dataclass(frozen=True)
class StoredFile:
    """A base-table partition as stored: its row groups, with their zone
    maps.

    Its arrays are read-only, so readers may share them: a read of one
    row group hands the stored arrays over by reference.
    """

    schema: Schema
    num_rows: int
    row_groups: tuple[RowGroup, ...]

    def kept(self, zone_map_filters: ZoneMapFilters = None
             ) -> tuple[int, ...]:
        """Indices of the row groups whose zone maps pass every filter."""
        return tuple(index for index, group in enumerate(self.row_groups)
                     if _passes(group.zone_maps, zone_map_filters))

    def read(self, columns: Optional[Iterable[str]],
             kept: tuple[int, ...]) -> RecordBatch:
        """The projected ``columns`` of the ``kept`` row groups, in
        order."""
        schema = (self.schema.select(columns) if columns is not None
                  else self.schema)
        return _assemble(schema, [self.row_groups[index].columns
                                  for index in kept])


def _stored_column(array: np.ndarray, dtype: DataType) -> np.ndarray:
    """``array`` as it is stored, read-only."""
    if dtype is DataType.STRING:
        stored = np.array([str(v) for v in array], dtype=object)
    else:
        stored = array.astype(dtype.numpy_dtype)
    stored.flags.writeable = False
    return stored


def _zone_maps(stored: np.ndarray, dtype: DataType,
               bounds: list[tuple[int, int]]) -> list[tuple]:
    """(min, max) of each ``stored[start:stop]`` chunk of ``bounds``;
    ``(None, None)`` for an empty one.

    Taken from the stored values, not the batch's: a DATE arrives as
    int64 and is stored as int32, and its zone map must bound what a
    reader gets. Numbers reduce over the non-empty chunks at once, as
    Python floats: an empty segment of ``reduceat`` would return a
    neighbour's element, so the empty chunks take no segment.
    """
    if dtype is DataType.STRING:
        values = stored.tolist()
        return [(min(values[start:stop]), max(values[start:stop]))
                if stop > start else (None, None)
                for start, stop in bounds]
    starts = [start for start, stop in bounds if stop > start]
    if not starts:
        return [(None, None)] * len(bounds)
    lows = iter(np.minimum.reduceat(stored, starts)
                .astype(np.float64).tolist())
    highs = iter(np.maximum.reduceat(stored, starts)
                 .astype(np.float64).tolist())
    return [(next(lows), next(highs)) if stop > start else (None, None)
            for start, stop in bounds]


def store_files(batch: RecordBatch,
                row_counts: Sequence[int]) -> list[StoredFile]:
    """``batch`` cut into consecutive files of ``row_counts`` rows, each a
    :class:`StoredFile` of :data:`ROW_GROUP_SIZE`-row groups. A file of
    no rows still has one (empty) row group.

    Each column is converted to its stored form once, and every row
    group's chunk is a read-only view of it.
    """
    if sum(row_counts) != len(batch):
        raise ValueError(f"row counts sum to {sum(row_counts)}, "
                         f"the batch has {len(batch)} rows")
    row_group_size = ROW_GROUP_SIZE
    bounds: list[tuple[int, int]] = []
    group_counts = []
    stop = 0
    for rows in row_counts:
        start, stop = stop, stop + rows
        starts = range(start, max(stop, start + 1), row_group_size)
        bounds.extend((first, min(first + row_group_size, stop))
                      for first in starts)
        group_counts.append(len(starts))
    chunks, zones = {}, {}
    for field in batch.schema:
        stored = _stored_column(batch.column(field.name), field.dtype)
        chunks[field.name] = [stored[start:stop] for start, stop in bounds]
        zones[field.name] = _zone_maps(stored, field.dtype, bounds)
    groups = [RowGroup({name: chunks[name][index] for name in chunks},
                       {name: zones[name][index] for name in zones})
              for index in range(len(bounds))]
    files, first = [], 0
    for rows, count in zip(row_counts, group_counts):
        files.append(StoredFile(batch.schema, rows,
                                tuple(groups[first:first + count])))
        first += count
    return files


def store_file(batch: RecordBatch) -> StoredFile:
    """``batch`` as one :class:`StoredFile` (:func:`store_files` with one
    file)."""
    [stored] = store_files(batch, [len(batch)])
    return stored


class ColumnarCache:
    """LRU cache of assembled reads of base-table files.

    Assembling is pure host-side work: the simulated cost of a read
    (requests, transfer time, decode compute) is charged before it runs,
    so a hit changes wall-clock only, never a simulated outcome. Entries
    are keyed by ``(identity, projection, row groups kept)``; the
    identity is ``(object key, version)``, so an overwritten object can
    never serve a stale read. Hits share their column arrays, which are
    read-only. Every read counts exactly one hit or one miss.
    """

    #: Assembled reads kept.
    MAX_ENTRIES = 512

    def __init__(self) -> None:
        #: Key -> (schema, column arrays, physical size of the batch).
        self._assembled: OrderedDict[Any, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def read(self, identity: Any, file: StoredFile,
             columns: Optional[Iterable[str]] = None,
             zone_map_filters: ZoneMapFilters = None) -> RecordBatch:
        """``file``'s projected ``columns`` of the row groups whose zone
        maps pass ``zone_map_filters``, from cache when possible. The
        batch's ``logical_bytes`` is its physical size, as on a cold
        read, so callers may overwrite it."""
        projection = tuple(columns) if columns is not None else None
        kept = file.kept(zone_map_filters)
        key = (identity, projection, kept)
        entry = self._assembled.get(key)
        if entry is not None:
            self._assembled.move_to_end(key)
            self.hits += 1
            schema, arrays, physical = entry
            batch = RecordBatch(schema, arrays, logical_bytes=float(physical))
            batch._physical = physical
            return batch
        self.misses += 1
        batch = read_only(file.read(projection, kept))
        self._assembled[key] = (batch.schema, dict(batch.columns),
                                batch.physical_bytes)
        if len(self._assembled) > self.MAX_ENTRIES:
            self._assembled.popitem(last=False)
        return batch
