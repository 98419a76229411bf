"""The columnar file container.

Layout (all integers little-endian):

* magic ``SKYR`` (4 bytes)
* row groups, each a sequence of zlib-compressed column chunks
* footer: JSON metadata (schema, row-group boundaries, per-chunk offsets,
  sizes, encodings, and min/max zone maps)
* footer length (8 bytes) + magic ``SKYR``

Readers fetch the footer first, then only the chunks their projection
needs, skipping row groups whose zone maps cannot satisfy the predicate
(projection and selection pushdown, Section 3.2).
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Schema

MAGIC = b"SKYR"
DEFAULT_ROW_GROUP_SIZE = 64 * 1024


@dataclass
class ChunkMeta:
    """Location and statistics of one column chunk."""

    column: str
    offset: int
    size: int
    encoding: str
    rows: int
    min_value: Optional[float | str]
    max_value: Optional[float | str]

    def to_dict(self) -> dict:
        return {
            "column": self.column, "offset": self.offset, "size": self.size,
            "encoding": self.encoding, "rows": self.rows,
            "min": self.min_value, "max": self.max_value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkMeta":
        return cls(column=data["column"], offset=data["offset"],
                   size=data["size"], encoding=data["encoding"],
                   rows=data["rows"], min_value=data["min"],
                   max_value=data["max"])


@dataclass
class FileMetadata:
    """Footer contents: schema plus chunk index."""

    schema: Schema
    num_rows: int
    row_groups: list[list[ChunkMeta]]

    def to_json(self) -> bytes:
        payload = {
            "schema": self.schema.to_dict(),
            "num_rows": self.num_rows,
            "row_groups": [[chunk.to_dict() for chunk in group]
                           for group in self.row_groups],
        }
        # Simulated wire format, not an artifact: the compact footer's
        # byte size models S3 object sizes, and canonical_json's indent
        # would inflate every simulated transfer.
        return json.dumps(payload).encode("utf-8")  # repro-lint: disable=ARCH002 compact wire format sizes simulated bytes

    @classmethod
    def from_json(cls, raw: bytes) -> "FileMetadata":
        payload = json.loads(raw.decode("utf-8"))
        return cls(
            schema=Schema.from_dict(payload["schema"]),
            num_rows=payload["num_rows"],
            row_groups=[[ChunkMeta.from_dict(chunk) for chunk in group]
                        for group in payload["row_groups"]])


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


def write_file(batch: RecordBatch,
               row_group_size: int = DEFAULT_ROW_GROUP_SIZE) -> bytes:
    """Serialize a batch into the columnar container format."""
    if row_group_size <= 0:
        raise ValueError("row_group_size must be positive")
    body = bytearray(MAGIC)
    row_groups: list[list[ChunkMeta]] = []
    for start in range(0, max(len(batch), 1), row_group_size):
        stop = min(start + row_group_size, len(batch))
        group: list[ChunkMeta] = []
        for field in batch.schema:
            array = batch.column(field.name)[start:stop]
            payload, encoding = _encode_column(array, field.dtype)
            min_value, max_value = _column_stats(array, field.dtype)
            group.append(ChunkMeta(
                column=field.name, offset=len(body), size=len(payload),
                encoding=encoding, rows=stop - start,
                min_value=min_value, max_value=max_value))
            body.extend(payload)
        row_groups.append(group)
        if stop >= len(batch):
            break
    metadata = FileMetadata(schema=batch.schema, num_rows=len(batch),
                            row_groups=row_groups)
    footer = metadata.to_json()
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
    return FileMetadata.from_json(data[footer_start:footer_start + footer_len])


#: A zone-map predicate: given (min, max), may the chunk contain matches?
ZoneMapPredicate = Callable[[Optional[float | str], Optional[float | str]], bool]


def content_key(data: bytes) -> bytes:
    """Content digest of a serialized file, usable as a cache key.

    Keys reads of transient objects (shuffle slices carry the query id
    in their object key, so identity-based keys never repeat) by their
    bytes instead: identical payloads share footer and chunk entries.
    """
    return hashlib.md5(data).digest()


def _batch_content_key(batch: RecordBatch, row_group_size: int) -> bytes:
    """Content digest of a batch: two batches with equal keys serialize
    to byte-identical files.

    Values are length-framed (strings) or raw buffers tagged with their
    physical dtype (numerics), so no two distinct column contents can
    produce the same digest input.
    """
    h = hashlib.md5()
    h.update(struct.pack("<QQ", len(batch), row_group_size))
    for field in batch.schema:
        array = batch.columns[field.name]
        h.update(field.name.encode("utf-8"))
        h.update(field.dtype.value.encode("utf-8"))
        if field.dtype is DataType.STRING:
            for value in array.tolist():
                encoded = str(value).encode("utf-8")
                h.update(struct.pack("<Q", len(encoded)))
                h.update(encoded)
        else:
            h.update(str(array.dtype).encode("utf-8"))
            h.update(np.ascontiguousarray(array).tobytes())
    return h.digest()


class ColumnarCache:
    """LRU cache of parsed footers and decoded column chunks.

    Decoding is pure host-side CPU work: the simulated cost of a read
    (requests, transfer time, decode compute) is charged *before*
    :func:`read_file` runs, so serving a footer or chunk from this cache
    changes wall-clock only, never a simulated outcome. Entries are
    keyed by a caller-supplied identity token — ``(object key, version)``
    for base tables, plus the partition index for shuffle slices — so an
    overwritten object (new version) can never serve stale bytes.

    Cached chunk arrays are shared across readers but never aliased into
    a :class:`RecordBatch`: ``read_file`` concatenates pieces, and
    ``np.concatenate`` always copies, even for a single input.
    """

    def __init__(self, max_bytes: float = 256 * 1024 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = float(max_bytes)
        self._footers: OrderedDict[Any, FileMetadata] = OrderedDict()
        self._chunks: OrderedDict[Any, np.ndarray] = OrderedDict()
        self._chunk_bytes = 0.0
        self._encoded: OrderedDict[bytes, bytes] = OrderedDict()
        self._encoded_bytes = 0.0
        #: Fully assembled reads: (cache_key, projection) -> the schema,
        #: concatenated column arrays, and physical size of the decoded
        #: batch. Hits rebuild a fresh RecordBatch around the shared
        #: arrays (columns are never mutated in place — see batch.py).
        self._assembled: OrderedDict[Any, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def metadata(self, cache_key: Any, data: bytes) -> FileMetadata:
        """Parsed footer of ``data``, from cache when possible."""
        cached = self._footers.get(cache_key)
        if cached is not None:
            self._footers.move_to_end(cache_key)
            self.hits += 1
            return cached
        self.misses += 1
        metadata = read_metadata(data)
        self._footers[cache_key] = metadata
        while len(self._footers) > 1024:
            self._footers.popitem(last=False)
        return metadata

    def chunk(self, cache_key: Any, chunk: ChunkMeta, data: bytes,
              dtype: DataType) -> np.ndarray:
        """Decoded array for ``chunk``, from cache when possible.

        Callers must treat the returned array as read-only.
        """
        key = (cache_key, chunk.offset)
        cached = self._chunks.get(key)
        if cached is not None:
            self._chunks.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        payload = data[chunk.offset:chunk.offset + chunk.size]
        array = _decode_column(payload, chunk.encoding, dtype, chunk.rows)
        self._chunks[key] = array
        self._chunk_bytes += array.nbytes
        while self._chunk_bytes > self.max_bytes and self._chunks:
            _, evicted = self._chunks.popitem(last=False)
            self._chunk_bytes -= evicted.nbytes
        return array

    def encode_batch(self, batch: RecordBatch,
                     row_group_size: int = DEFAULT_ROW_GROUP_SIZE) -> bytes:
        """Serialize ``batch`` via :func:`write_file`, memoized by content.

        Serving workloads write the same shuffle partitions for every
        execution of a query template; hashing the batch is several
        times cheaper than re-running dictionary encoding, zlib, and
        footer serialization. The returned bytes are exactly what
        ``write_file`` produces, so simulated object sizes are
        unchanged.
        """
        key = _batch_content_key(batch, row_group_size)
        hit = self._encoded.get(key)
        if hit is not None:
            self._encoded.move_to_end(key)
            self.hits += 1
            return hit
        self.misses += 1
        payload = write_file(batch, row_group_size=row_group_size)
        self._encoded[key] = payload
        self._encoded_bytes += len(payload)
        while self._encoded_bytes > self.max_bytes and self._encoded:
            _, evicted = self._encoded.popitem(last=False)
            self._encoded_bytes -= len(evicted)
        return payload

    def assembled(self, key: Any) -> "RecordBatch | None":
        """A fresh batch from a cached assembled read, or ``None``.

        The batch shares its column arrays with every other hit of the
        same entry; its ``logical_bytes`` matches what a cold
        :func:`read_file` would have produced (the physical size),
        so callers may overwrite it exactly as they do on a miss.
        """
        entry = self._assembled.get(key)
        if entry is None:
            return None
        self._assembled.move_to_end(key)
        self.hits += 1
        schema, arrays, physical = entry
        batch = RecordBatch(schema, arrays, logical_bytes=float(physical))
        batch._physical = physical
        return batch

    def store_assembled(self, key: Any, batch: "RecordBatch") -> None:
        """Remember a fully decoded read for :meth:`assembled`."""
        self._assembled[key] = (batch.schema, dict(batch.columns),
                                batch.physical_bytes)
        while len(self._assembled) > 512:
            self._assembled.popitem(last=False)


def read_file(data: bytes, columns: Optional[Iterable[str]] = None,
              zone_map_filters: Optional[dict[str, ZoneMapPredicate]] = None,
              cache: Optional[ColumnarCache] = None,
              cache_key: Any = None) -> RecordBatch:
    """Read a columnar file with projection and selection pushdown.

    ``columns`` restricts which column chunks are decoded; row groups
    whose zone maps fail any ``zone_map_filters`` entry are skipped
    entirely. With both ``cache`` and ``cache_key``, footer parsing and
    chunk decoding are served from the cache on repeat reads of the same
    object version.
    """
    use_cache = cache is not None and cache_key is not None
    projection = tuple(columns) if columns is not None else None
    assembled_key = None
    if use_cache and not zone_map_filters:
        # Zone-map predicates are per-query callables, so only
        # filter-free reads are cached whole; filtered reads still hit
        # the footer and chunk caches below.
        assembled_key = (cache_key, projection)
        hit = cache.assembled(assembled_key)
        if hit is not None:
            return hit
    if use_cache:
        metadata = cache.metadata(cache_key, data)
    else:
        metadata = read_metadata(data)
    wanted = (list(projection) if projection is not None
              else metadata.schema.names())
    sub_schema = metadata.schema.select(wanted)
    filters = zone_map_filters or {}
    pieces: dict[str, list[np.ndarray]] = {name: [] for name in wanted}
    for group in metadata.row_groups:
        by_name = {chunk.column: chunk for chunk in group}
        skip = False
        for column, predicate in filters.items():
            chunk = by_name.get(column)
            if chunk is not None and not predicate(chunk.min_value,
                                                   chunk.max_value):
                skip = True
                break
        if skip:
            continue
        for name in wanted:
            chunk = by_name[name]
            dtype = metadata.schema.field(name).dtype
            if use_cache:
                pieces[name].append(cache.chunk(cache_key, chunk, data, dtype))
                continue
            payload = data[chunk.offset:chunk.offset + chunk.size]
            pieces[name].append(
                _decode_column(payload, chunk.encoding, dtype, chunk.rows))
    arrays = {}
    for name in wanted:
        dtype = metadata.schema.field(name).dtype
        if pieces[name]:
            arrays[name] = np.concatenate(pieces[name])
        else:
            arrays[name] = np.empty(0, dtype=dtype.numpy_dtype)
    batch = RecordBatch(sub_schema, arrays)
    if assembled_key is not None:
        cache.store_assembled(assembled_key, batch)
    return batch


class ColumnarFile:
    """Convenience wrapper pairing bytes with parsed metadata."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.metadata = read_metadata(data)

    @classmethod
    def from_batch(cls, batch: RecordBatch,
                   row_group_size: int = DEFAULT_ROW_GROUP_SIZE
                   ) -> "ColumnarFile":
        """Encode a batch into a file."""
        return cls(write_file(batch, row_group_size=row_group_size))

    @property
    def num_rows(self) -> int:
        """Total row count."""
        return self.metadata.num_rows

    @property
    def size(self) -> int:
        """Physical file size in bytes."""
        return len(self.data)

    def read(self, columns: Optional[Iterable[str]] = None,
             zone_map_filters: Optional[dict[str, ZoneMapPredicate]] = None
             ) -> RecordBatch:
        """Decode (a projection of) the file."""
        return read_file(self.data, columns=columns,
                         zone_map_filters=zone_map_filters)
