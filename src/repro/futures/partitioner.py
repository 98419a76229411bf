"""Data partitioner: split storage objects and prefixes into chunks.

The futures analogue of lithops' ``job/partitioner.py``: given a storage
service and a key prefix, produce the per-function work units a ``map``
fans out over. Two strategies are supported:

* **object granularity** — one :class:`DataChunk` per object (no
  ``chunk_bytes``), the right shape when objects are already the unit of
  work;
* **byte ranges** — each object is split into ``ceil(size /
  chunk_bytes)`` ranges, optionally aligned down to a record width so a
  fixed-width ETL mapper never sees a torn record.

Chunk order is deterministic: objects in sorted key order, ranges in
ascending offset, and every chunk carries its global ``index`` so
results can be reassembled regardless of completion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class DataChunk:
    """One unit of mapper input: a byte range of one storage object."""

    key: str
    #: Byte offset of this chunk within the object.
    offset: float
    #: Byte length of this chunk.
    length: float
    #: Total logical size of the backing object.
    object_size: float
    #: Range index within the object, and the object's range count.
    part: int
    parts: int
    #: Global chunk index across the whole partition job.
    index: int = 0


def partition_object(key: str, size: float,
                     chunk_bytes: Optional[float] = None,
                     align_bytes: Optional[float] = None) -> list[DataChunk]:
    """Split one object into chunks.

    Without ``chunk_bytes`` (or when the object fits in one chunk) the
    object is a single whole-object chunk — including zero-byte objects,
    which still represent one unit of work. With ``align_bytes``, every
    interior boundary is rounded down to a multiple of it; boundaries
    that collapse onto their predecessor are dropped rather than
    emitting empty chunks.
    """
    if size < 0:
        raise ValueError(f"object size must be >= 0, got {size}")
    if chunk_bytes is None or size <= chunk_bytes:
        return [DataChunk(key=key, offset=0.0, length=size,
                          object_size=size, part=0, parts=1)]
    if chunk_bytes <= 0:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    if align_bytes is not None and align_bytes <= 0:
        raise ValueError(f"align_bytes must be positive, got {align_bytes}")
    boundaries = [0.0]
    for part in range(1, math.ceil(size / chunk_bytes)):
        cut = part * chunk_bytes
        if align_bytes is not None:
            cut = math.floor(cut / align_bytes) * align_bytes
        if cut > boundaries[-1]:
            boundaries.append(float(cut))
    boundaries.append(float(size))
    parts = len(boundaries) - 1
    return [DataChunk(key=key, offset=boundaries[part],
                      length=boundaries[part + 1] - boundaries[part],
                      object_size=float(size), part=part, parts=parts)
            for part in range(parts)]


def partition_prefix(service, prefix: str = "",
                     chunk_bytes: Optional[float] = None,
                     align_bytes: Optional[float] = None) -> list[DataChunk]:
    """Partition every object under ``prefix`` into mapper chunks.

    ``service`` is any storage service (``list_keys`` + ``head``); only
    metadata is read, so partitioning is free of simulated time and can
    run before the job process starts. An empty prefix listing yields an
    empty chunk list.
    """
    chunks: list[DataChunk] = []
    for key in service.list_keys(prefix):
        size = service.head(key).size
        for chunk in partition_object(key, size, chunk_bytes=chunk_bytes,
                                      align_bytes=align_bytes):
            chunks.append(replace(chunk, index=len(chunks)))
    return chunks
