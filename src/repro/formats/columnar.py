"""The columnar file: row groups of column chunks with min/max zone maps.

A base-table partition is stored as a :class:`StoredFile`: the row
groups of :func:`write_file`, already decoded, with their zone maps.
Readers take only the columns their projection needs and skip row
groups whose zone maps cannot satisfy the predicate (projection and
selection pushdown, Section 3.2). No simulated quantity depends on the
encoded bytes (storage sizes are logical), so nothing is encoded at
load or decoded at scan.

The byte container is the reference those reads must equal
(``read_file(write_file(batch))``). Layout (integers little-endian):

* magic ``SKYR`` (4 bytes)
* row groups, each a sequence of zlib-compressed column chunks
* footer: JSON metadata (schema, row-group boundaries, per-chunk offsets,
  sizes, encodings, and min/max zone maps)
* footer length (8 bytes) + magic ``SKYR``
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from repro.formats.batch import RecordBatch, read_only
from repro.formats.schema import DataType, Schema

MAGIC = b"SKYR"
DEFAULT_ROW_GROUP_SIZE = 64 * 1024


class ChunkMeta(NamedTuple):
    """Location and statistics of one column chunk (a footer entry)."""

    column: str
    offset: int
    size: int
    encoding: str
    rows: int
    min_value: Optional[float | str]
    max_value: Optional[float | str]


@dataclass
class FileMetadata:
    """Footer contents: schema plus chunk index."""

    schema: Schema
    num_rows: int
    row_groups: list[list[ChunkMeta]]


#: Use dictionary encoding when distinct values cover at most this
#: fraction of a string chunk (low cardinality, e.g. flags and modes).
DICTIONARY_CARDINALITY_FRACTION = 0.5


def _encode_column(array: np.ndarray, dtype: DataType) -> tuple[bytes, str]:
    """Compress one column chunk; returns (payload, encoding tag).

    Strings choose between plain UTF-8 and dictionary encoding: columns
    like ``l_returnflag`` or ``l_shipmode`` hold a handful of distinct
    values, so storing (dictionary + per-row codes) beats repeating the
    text — the usual Parquet trade-off.
    """
    if dtype is DataType.STRING:
        values = [str(v) for v in array]
        uniques = sorted(set(values))
        if values and len(uniques) <= max(
                1, int(len(values) * DICTIONARY_CARDINALITY_FRACTION)):
            index = {value: code for code, value in enumerate(uniques)}
            codes = np.array([index[v] for v in values], dtype=np.int32)
            dictionary = "\x00".join(uniques).encode("utf-8")
            payload = (struct.pack("<I", len(dictionary)) + dictionary
                       + codes.tobytes())
            return zlib.compress(payload, level=1), "dict-zlib"
        blob = "\x00".join(values).encode("utf-8")
        return zlib.compress(blob, level=1), "utf8-zlib"
    contiguous = np.ascontiguousarray(array.astype(dtype.numpy_dtype))
    return zlib.compress(contiguous.tobytes(), level=1), "raw-zlib"


def _decode_column(payload: bytes, encoding: str, dtype: DataType,
                   rows: int) -> np.ndarray:
    """Invert :func:`_encode_column`."""
    raw = zlib.decompress(payload)
    if encoding == "utf8-zlib":
        if rows == 0:
            return np.empty(0, dtype=object)
        values = raw.decode("utf-8").split("\x00")
        if len(values) != rows:
            raise ValueError(f"string chunk has {len(values)} values, "
                             f"expected {rows}")
        return np.array(values, dtype=object)
    if encoding == "dict-zlib":
        (dict_len,) = struct.unpack("<I", raw[:4])
        dictionary = raw[4:4 + dict_len].decode("utf-8").split("\x00")
        codes = np.frombuffer(raw[4 + dict_len:], dtype=np.int32)
        if len(codes) != rows:
            raise ValueError(f"dictionary chunk has {len(codes)} codes, "
                             f"expected {rows}")
        lookup = np.array(dictionary, dtype=object)
        return lookup[codes]
    if encoding == "raw-zlib":
        return np.frombuffer(raw, dtype=dtype.numpy_dtype).copy()
    raise ValueError(f"unknown encoding {encoding!r}")


def _column_stats(array: np.ndarray, dtype: DataType):
    if len(array) == 0:
        return None, None
    if dtype is DataType.STRING:
        values = [str(v) for v in array]
        return min(values), max(values)
    return float(np.min(array)), float(np.max(array))


def _row_groups(batch: RecordBatch, row_group_size: int
                ) -> Iterator[list[tuple]]:
    """Each row group of ``batch``: (field, slice, min, max) per column.

    A zero-row batch still has one (empty) row group.
    """
    if row_group_size <= 0:
        raise ValueError("row_group_size must be positive")
    for start in range(0, max(len(batch), 1), row_group_size):
        group = []
        for field in batch.schema:
            array = batch.column(field.name)[start:start + row_group_size]
            group.append((field, array, *_column_stats(array, field.dtype)))
        yield group


def write_file(batch: RecordBatch,
               row_group_size: int = DEFAULT_ROW_GROUP_SIZE) -> bytes:
    """Serialize a batch into the columnar container format."""
    body = bytearray(MAGIC)
    row_groups: list[list[ChunkMeta]] = []
    for group in _row_groups(batch, row_group_size):
        chunks: list[ChunkMeta] = []
        for field, array, min_value, max_value in group:
            payload, encoding = _encode_column(array, field.dtype)
            chunks.append(ChunkMeta(field.name, len(body), len(payload),
                                    encoding, len(array), min_value,
                                    max_value))
            body.extend(payload)
        row_groups.append(chunks)
    # A chunk's entry is its ChunkMeta as a JSON list. The footer is a
    # wire format, not an artifact: nothing needs it canonical.
    footer = json.dumps({  # wire format, not an artifact
        "schema": batch.schema.to_dict(), "num_rows": len(batch),
        "row_groups": row_groups}).encode("utf-8")
    body.extend(footer)
    body.extend(struct.pack("<Q", len(footer)))
    body.extend(MAGIC)
    return bytes(body)


def read_metadata(data: bytes) -> FileMetadata:
    """Parse the footer of a columnar file."""
    if len(data) < 16 or data[:4] != MAGIC or data[-4:] != MAGIC:
        raise ValueError("not a columnar file (bad magic)")
    (footer_len,) = struct.unpack("<Q", data[-12:-4])
    footer_start = len(data) - 12 - footer_len
    if footer_start < 4:
        raise ValueError("corrupt footer length")
    footer = json.loads(data[footer_start:footer_start + footer_len])
    return FileMetadata(
        Schema.from_dict(footer["schema"]), footer["num_rows"],
        [[ChunkMeta(*chunk) for chunk in group]
         for group in footer["row_groups"]])


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


def read_file(data: bytes, columns: Optional[Iterable[str]] = None,
              zone_map_filters: ZoneMapFilters = None) -> RecordBatch:
    """Read a columnar file with projection and selection pushdown.

    ``columns`` restricts which column chunks are decoded; row groups
    whose zone maps fail any ``zone_map_filters`` entry are skipped
    entirely.
    """
    metadata = read_metadata(data)
    schema = (metadata.schema.select(columns) if columns is not None
              else metadata.schema)
    groups = []
    for group in metadata.row_groups:
        by_name = {chunk.column: chunk for chunk in group}
        if not _passes({name: (chunk.min_value, chunk.max_value)
                        for name, chunk in by_name.items()},
                       zone_map_filters):
            continue
        decoded = {}
        for field in schema:
            chunk = by_name[field.name]
            decoded[field.name] = _decode_column(
                data[chunk.offset:chunk.offset + chunk.size],
                chunk.encoding, field.dtype, chunk.rows)
        groups.append(decoded)
    return _assemble(schema, groups)


@dataclass(frozen=True)
class RowGroup:
    """One row group of a :class:`StoredFile`."""

    #: Column name -> the array :func:`_decode_column` returns for the
    #: chunk (numbers as their ``numpy_dtype``, strings as object arrays
    #: of ``str``), read-only.
    columns: dict[str, np.ndarray]
    #: Column name -> (min, max), as :func:`_column_stats` has it.
    zone_maps: dict[str, tuple]


@dataclass(frozen=True)
class StoredFile:
    """A base-table partition as stored: :func:`write_file`'s row groups,
    decoded, with their zone maps.

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
        """The projected ``columns`` of the ``kept`` row groups: what
        :func:`read_file` returns for this file's bytes."""
        schema = (self.schema.select(columns) if columns is not None
                  else self.schema)
        return _assemble(schema, [self.row_groups[index].columns
                                  for index in kept])


def _stored_column(array: np.ndarray, dtype: DataType) -> np.ndarray:
    """What :func:`_decode_column` returns for ``array``'s chunk, read-only."""
    if dtype is DataType.STRING:
        stored = np.array([str(v) for v in array], dtype=object)
    else:
        stored = array.astype(dtype.numpy_dtype)
    stored.flags.writeable = False
    return stored


def store_file(batch: RecordBatch,
               row_group_size: int = DEFAULT_ROW_GROUP_SIZE) -> StoredFile:
    """``batch`` as a :class:`StoredFile` with :func:`write_file`'s row
    groups and zone maps."""
    return StoredFile(batch.schema, len(batch), tuple(
        RowGroup({field.name: _stored_column(array, field.dtype)
                  for field, array, _, _ in group},
                 {field.name: (low, high) for field, _, low, high in group})
        for group in _row_groups(batch, row_group_size)))


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
