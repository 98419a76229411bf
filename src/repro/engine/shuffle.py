"""Storage-based shuffle: hash-partitioned exchange through object storage.

Producers hash-partition their output by the shuffle key and write one
object per fragment containing all partitions plus an offset index (write
combining — Section 5.3.2 notes the techniques to keep I/O sizes up).
Consumers issue one range request per (producer, partition) to fetch
exactly their slice, so shuffle read count = producers x consumers —
the quadratic request pattern behind Figure 15 and the Table 6 request
counts.

A slice's simulated size is always its explicit logical size, so the
slices themselves are handed over by reference: the stored payload is
the partition's :class:`RecordBatch` with read-only arrays, never
encoded bytes. Partitions that drew no rows share one empty piece per
producer, and readers leave such pieces out of their concatenation.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.engine.io import IoStack, RangeGet, _chunk_sizes
from repro.formats.batch import RecordBatch, read_only
from repro.sim import Event, Step


def shuffle_key(query_id: str, pipeline_id: str, fragment: int) -> str:
    """Object key of one producer fragment's shuffle output."""
    return f"shuffle/{query_id}/{pipeline_id}/frag-{fragment:05d}"


@dataclass
class ShufflePartition:
    """One partition slice inside a producer's shuffle object."""

    payload: RecordBatch
    logical_bytes: float
    rows: int


class ShuffleWriter:
    """Partition a batch and write it to storage.

    With ``combine=True`` (the default, and what the engine uses) all
    partitions go into one object with an offset index — the *write
    combining* of Section 5.3.2 that keeps request counts at one per
    producer. ``combine=False`` writes one object per partition (the
    naive layout), multiplying write requests by the consumer count; the
    ablation benchmark quantifies the difference.
    """

    def __init__(self, io: IoStack, query_id: str, pipeline_id: str,
                 fragment: int, partition_key: str, partitions: int,
                 combine: bool = True, epoch: int = 0) -> None:
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        self.io = io
        self.key = shuffle_key(query_id, pipeline_id, fragment)
        self.partition_key = partition_key
        self.partitions = partitions
        self.combine = combine
        #: Query-execution epoch: fences idempotent re-writes. A retried
        #: or hedged attempt carries the same epoch as its predecessor
        #: and skips the write if the object is already committed; a
        #: fresh execution of the same plan gets a new epoch and
        #: overwrites normally.
        self.epoch = epoch

    def partition_batch(self, batch: RecordBatch) -> list[ShufflePartition]:
        """Split ``batch`` into hash partitions by the shuffle key.

        Every partition without rows gets the same empty piece.
        """
        if self.partition_key is None or len(batch) == 0:
            assignment = np.zeros(len(batch), dtype=np.int64)
        else:
            keys = batch.column(self.partition_key)
            assignment = _hash_partition(keys, self.partitions)
        counts = np.bincount(assignment, minlength=self.partitions)
        empty = None
        slices: list[ShufflePartition] = []
        for partition, rows in enumerate(counts.tolist()):
            if rows:
                piece = read_only(batch.take(assignment == partition))
            else:
                if empty is None:
                    empty = read_only(batch.take(assignment[:0]))
                piece = empty
            slices.append(ShufflePartition(
                payload=piece, logical_bytes=piece.logical_bytes, rows=rows))
        return slices

    def _committed(self):
        """The already-written index if this epoch committed it, else None.

        The check is metadata-only (``exists``/``head`` are free in the
        storage model) so fault-free executions are unaffected.
        """
        storage = self.io.storage
        if not storage.exists(self.key):
            return None
        existing = storage.head(self.key).payload
        if isinstance(existing, dict) and existing.get("epoch") == self.epoch:
            return existing
        return None

    def write(self, batch: RecordBatch):
        """Process: partition and store the shuffle output.

        Writes are idempotent per execution epoch: if another attempt of
        this fragment already committed the object under the same epoch
        (retry after a post-write crash, or a lost hedge race), the
        write is skipped. Duplicate attempts compute identical content,
        so a concurrent double-write is harmless either way.

        Returns the index payload (combined mode) or the per-partition
        key list (uncombined mode).
        """
        committed = self._committed()
        if committed is not None:
            return committed
        slices = self.partition_batch(batch)
        if self.combine:
            payload = {
                "combined": True,
                "epoch": self.epoch,
                "partitions": [s.payload for s in slices],
                "logical": [s.logical_bytes for s in slices],
                "rows": [s.rows for s in slices],
            }
            total_logical = max(1.0, sum(s.logical_bytes for s in slices))
            yield from self.io.write_object(self.key, payload, total_logical)
            return payload
        # Naive layout: one object (and one write request) per partition.
        # Parts land first and the index last, so the index doubles as
        # the commit record: readers (and the epoch check above) never
        # observe an index whose parts are missing.
        for partition, piece in enumerate(slices):
            yield from self.io.write_object(
                f"{self.key}/p-{partition:05d}", piece.payload,
                max(piece.logical_bytes, 1.0))
        index = {
            "combined": False,
            "epoch": self.epoch,
            "logical": [s.logical_bytes for s in slices],
            "rows": [s.rows for s in slices],
        }
        yield from self.io.write_object(self.key, index, 1.0)
        return index


class ShuffleReader:
    """Fetch one consumer partition from every producer fragment.

    Slice reads are issued concurrently from a fixed-size pool (the
    engine "divides large storage requests into smaller chunks to
    process them in parallel", Section 3.2) — with hundreds of consumers
    this produces the bursty quadratic request pattern that pressures
    object-storage request rates (Section 4.5.2).
    """

    def __init__(self, io: IoStack, query_id: str, pipeline_id: str,
                 producer_fragments: int, partition: int,
                 concurrency: int = 32) -> None:
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        self.io = io
        self.query_id = query_id
        self.pipeline_id = pipeline_id
        self.producer_fragments = producer_fragments
        self.partition = partition
        self.concurrency = concurrency

    def read(self):
        """Process: range-read this partition from each producer object.

        Returns the concatenated :class:`RecordBatch`.
        """
        if self.producer_fragments <= 0:
            raise ValueError("shuffle read with zero producers")
        batches: list[RecordBatch] = []
        fragments = list(range(self.producer_fragments))
        while fragments:
            window = fragments[:self.concurrency]
            fragments = fragments[self.concurrency:]
            requests = deque([SliceRead(self, fragment)
                              for fragment in window])
            # Popped as waited for, so no local keeps a request: a failed
            # one's error would keep this frame, and the frame the request.
            while requests:
                batches.append((yield requests.popleft()))
        # The per-slice requests deferred their payload movement; pull
        # the combined bytes through the worker's network budget once.
        yield from self.io.bulk_transfer()
        # An empty piece adds no rows and ``+ 0.0`` to the logical sum.
        kept = [batch for batch in batches
                if len(batch) or batch.logical_bytes]
        return RecordBatch.concat(kept or batches[:1])


class SliceRead(Event):
    """This consumer's slice of one producer's object, as one request.

    The request size is the slice's logical size — sub-KiB up to MiBs,
    the "Shuffle I/O Size" column of Table 6 — read through
    :meth:`IoStack.chunk_requests` as :meth:`IoStack.read_object` reads,
    but with the transfer deferred: each request pays admission and
    first-byte latency, and :meth:`IoStack.bulk_transfer` later moves
    the bytes in one aggregate flow, so thousands of sub-MiB slice reads
    do not each occupy the network fabric. The event ends with the stored
    piece itself, since :meth:`ShuffleReader.read` only concatenates
    what it gets; or, where the index records another logical size
    than the piece carries, with a new batch over the piece's arrays.

    A callback-driven state machine like :class:`RangeGet`, with the two
    kernel events a process per slice would push around its chunk
    requests: its start (priority 0) and its end (priority 1).
    """

    __slots__ = ("reader", "fragment", "_key", "_size", "_chunk_count",
                 "_started", "_logical", "_piece", "_requests")

    def __init__(self, reader: ShuffleReader, fragment: int) -> None:
        env = reader.io.env
        Event.__init__(self, env)
        self.reader = reader
        self.fragment = fragment
        Step(env, 0, self._start)

    def _start(self, _event) -> None:
        reader = self.reader
        io = reader.io
        partition = reader.partition
        key = shuffle_key(reader.query_id, reader.pipeline_id, self.fragment)
        try:
            index = io.storage.head(key).payload
            logical = float(index["logical"][partition])
            if index.get("combined", True):
                piece = index["partitions"][partition]
            else:
                key = f"{key}/p-{partition:05d}"
                piece = io.storage.head(key).payload
        except Exception as exc:
            self.fail(exc)
            # The traceback keeps this frame: no local of it may lead
            # back to the error (docs/performance.md, "Garbage").
            self = None
            return
        size = max(logical, 1.0)
        chunks = _chunk_sizes(size, io.chunk_bytes)
        self._key = key
        self._size = size
        self._chunk_count = len(chunks)
        self._started = self.env.now
        self._logical = logical
        self._piece = piece
        if len(chunks) == 1:
            # Every slice up to ``chunk_bytes``: one request, no windows.
            self._requests = None
            RangeGet(io, key, size, True).callbacks.append(self._next)
        else:
            self._requests = io.chunk_requests(key, chunks, True)
            self._next()

    def _next(self, done: Event | None = None) -> None:
        """Wait for the chunk requests in turn (``done`` is the one just
        waited for); end once the last has."""
        requests = self._requests
        while done is None or done._ok:
            done = None if requests is None else next(requests, None)
            if done is None:
                self._end()
                return
            if done.callbacks is not None:
                done.callbacks.append(self._next)
                return
        self._requests = None
        done._defused = True
        self.fail(done._value)

    def _end(self) -> None:
        self._requests = None
        self.reader.io.read_done(self._key, self._size, self._chunk_count,
                                 self._started, True)
        piece = self._piece
        if piece.logical_bytes != self._logical:
            piece = RecordBatch(piece.schema, piece.columns,
                                logical_bytes=self._logical)
        self.succeed(piece)


def _hash_partition(keys: np.ndarray, partitions: int) -> np.ndarray:
    """Stable hash assignment of key values to partitions."""
    out = np.empty(len(keys), dtype=np.int64)
    for i, value in enumerate(keys):
        if isinstance(value, (int, np.integer)):
            digest = zlib.crc32(int(value).to_bytes(8, "little", signed=True))
        else:
            digest = zlib.crc32(str(value).encode("utf-8"))
        out[i] = digest % partitions
    return out
