"""Worker I/O stack: chunked storage reads with straggler re-triggering.

Section 3.2: "the engine divides large storage requests into smaller
chunks to process them in parallel. Straggling requests are retriggered
after a size-based timeout." Chunk reads are modelled as S3 range
requests: each chunk is one metered request whose transfer moves the
chunk's logical bytes across the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.network.fabric import Endpoint
from repro.sim import AnyOf, Environment
from repro.storage.base import RequestType, StorageService
from repro.storage.errors import StorageError
from repro.telemetry import get_recorder

#: Default chunk size for large reads. 64 MiB keeps the per-partition
#: request count at Table 6 levels (about one request per partition for
#: projected column data).
DEFAULT_CHUNK_BYTES = 64 * units.MiB

#: Concurrent in-flight chunks per worker (the paper's storage I/O
#: function uses a fixed-size thread pool).
DEFAULT_CONCURRENCY = 32

#: A chunk is a straggler when it exceeds ``factor * size / rate`` with
#: this expected per-chunk transfer rate.
STRAGGLER_EXPECTED_RATE = 75 * units.MiB
STRAGGLER_FACTOR = 8.0
STRAGGLER_MIN_TIMEOUT_S = 1.0


@dataclass
class IoStats:
    """Request/byte accounting for one worker's I/O."""

    requests: int = 0
    read_requests: int = 0
    write_requests: int = 0
    retried: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    read_time: float = 0.0
    write_time: float = 0.0
    request_sizes: list[float] = field(default_factory=list)


class IoStack:
    """Chunked, concurrent reads and writes against a storage service."""

    def __init__(self, env: Environment, storage: StorageService,
                 endpoint: Endpoint,
                 chunk_bytes: float = DEFAULT_CHUNK_BYTES,
                 concurrency: int = DEFAULT_CONCURRENCY,
                 cache=None) -> None:
        if chunk_bytes <= 0 or concurrency <= 0:
            raise ValueError("chunk_bytes and concurrency must be positive")
        self.env = env
        self.storage = storage
        self.endpoint = endpoint
        self.chunk_bytes = float(chunk_bytes)
        self.concurrency = concurrency
        #: Optional :class:`repro.formats.columnar.ColumnarCache` shared
        #: across workers; readers consult it after the simulated fetch.
        self.cache = cache
        self.stats = IoStats()
        self._deferred_bytes = 0.0
        recorder = get_recorder()
        self._telemetry = recorder if recorder.enabled else None
        #: Parent span for this stack's storage spans; the worker sets it
        #: to its own span so reads/writes nest inside the worker.
        self.span = None

    # -- reads ---------------------------------------------------------------

    def read_object(self, key: str, logical_bytes: float | None = None,
                    defer_transfer: bool = False):
        """Process: fetch ``key`` in parallel chunks.

        Returns the stored object (its payload is the full physical
        content — range semantics only affect metering and timing).

        ``defer_transfer=True`` performs admission and first-byte latency
        per request but skips the per-request network transfer; the
        caller moves the accumulated bytes in one aggregate flow via
        :meth:`bulk_transfer`. Shuffle readers use this so thousands of
        sub-MiB slice reads do not each occupy the network fabric.
        """
        started = self.env.now
        obj = self.storage.head(key)
        size = float(logical_bytes if logical_bytes is not None else obj.size)
        chunks = _chunk_sizes(size, self.chunk_bytes)
        if len(chunks) == 1:
            # One range request (every shuffle slice): nothing to window.
            yield self.env.process(
                self._read_chunk(key, chunks[0], defer_transfer),
                name="chunk-read")
        else:
            pending = chunks
            while pending:
                window, pending = (pending[:self.concurrency],
                                   pending[self.concurrency:])
                processes = [self.env.process(
                    self._read_chunk(key, nbytes, defer_transfer),
                    name="chunk-read") for nbytes in window]
                for process in processes:
                    yield process
        if defer_transfer:
            self._deferred_bytes += size
        self.stats.read_time += self.env.now - started
        if self._telemetry is not None:
            self._telemetry.record_span(
                "storage.read", started, self.env.now, parent=self.span,
                category="storage",
                attrs={"key": key, "bytes": size,
                       "service": self.storage.name,
                       "chunks": len(chunks)})
            self._telemetry.histogram("storage.read.latency_s").observe(
                self.env.now - started)
        return obj

    def bulk_transfer(self):
        """Process: move all deferred bytes in one aggregate flow."""
        nbytes = self._deferred_bytes
        self._deferred_bytes = 0.0
        if nbytes <= 0:
            return
        started = self.env.now
        yield from self.storage._transfer(RequestType.GET, nbytes,
                                          self.endpoint)
        self.stats.read_time += self.env.now - started
        if self._telemetry is not None:
            self._telemetry.record_span(
                "storage.bulk_transfer", started, self.env.now,
                parent=self.span, category="storage",
                attrs={"bytes": nbytes, "service": self.storage.name})

    def _read_chunk(self, key: str, nbytes: float,
                    defer_transfer: bool = False):
        """Process: one range request with straggler re-triggering."""
        timeout_s = max(STRAGGLER_MIN_TIMEOUT_S,
                        STRAGGLER_FACTOR * nbytes / STRAGGLER_EXPECTED_RATE)
        backoff = 0.05
        while True:
            self.stats.requests += 1
            self.stats.read_requests += 1
            self.stats.request_sizes.append(nbytes)
            attempt = self.env.process(
                self._fetch_range(key, nbytes, defer_transfer),
                name="range-get")
            deadline = self.env.timeout(timeout_s)
            try:
                yield AnyOf(self.env, [attempt, deadline])
            except StorageError as exc:
                # Classify only. The traceback of ``exc`` now holds this
                # frame, and ``attempt`` holds ``exc``: let go of the dead
                # attempt here, and wait out the backoff below rather than
                # in the handler, which would pin all of it for the wait.
                attempt = deadline = None
                if not exc.retryable:
                    raise
            if attempt is None:
                # The attempt failed (throttled/timed out service-side);
                # retry with exponential backoff (Section 4.4.1).
                self.stats.retried += 1
                yield self.env.timeout(backoff)
                backoff = min(backoff * 2.0, 5.0)
                continue
            if attempt.processed:
                if attempt.ok:
                    self.stats.bytes_read += nbytes
                    return
                raise attempt.value
            # Straggler: abandon and re-trigger (Section 3.2).
            if attempt.is_alive:
                attempt.interrupt("straggler-retrigger")
                attempt.defuse()
            self.stats.retried += 1
            if self._telemetry is not None:
                self._telemetry.event(
                    self.env.now, "io.straggler_retrigger",
                    category="storage", key=key, bytes=nbytes,
                    timeout_s=timeout_s, service=self.storage.name)

    def _fetch_range(self, key: str, nbytes: float,
                     defer_transfer: bool = False):
        """Process: a single range GET moving ``nbytes`` logical bytes."""
        self.storage.check_fault(RequestType.GET, key)
        latency = self.storage.read_latency.sample_one(self.storage._rng)
        self.storage._admit_one(RequestType.GET, key)
        yield self.env.timeout(latency)
        if not defer_transfer:
            yield from self.storage._transfer(RequestType.GET, nbytes,
                                              self.endpoint)
        self.storage.stats.record(RequestType.GET, "ok", nbytes=nbytes)

    # -- writes --------------------------------------------------------------

    def write_object(self, key: str, payload, logical_bytes: float):
        """Process: store ``payload`` under ``key`` as one request."""
        started = self.env.now
        obj = yield from self.storage.put(key, payload, size=logical_bytes,
                                          endpoint=self.endpoint)
        self.stats.requests += 1
        self.stats.write_requests += 1
        self.stats.request_sizes.append(logical_bytes)
        self.stats.bytes_written += logical_bytes
        self.stats.write_time += self.env.now - started
        if self._telemetry is not None:
            self._telemetry.record_span(
                "storage.write", started, self.env.now, parent=self.span,
                category="storage",
                attrs={"key": key, "bytes": logical_bytes,
                       "service": self.storage.name})
            self._telemetry.histogram("storage.write.latency_s").observe(
                self.env.now - started)
        return obj


def _chunk_sizes(total: float, chunk: float) -> list[float]:
    """Split ``total`` bytes into chunk sizes (last one ragged)."""
    if total <= 0:
        return [1.0]  # metadata-only read still costs one request
    sizes = []
    remaining = total
    while remaining > 0:
        sizes.append(min(chunk, remaining))
        remaining -= chunk
    return sizes
