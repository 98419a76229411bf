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
from repro.sim import Environment, Event, Step, Timeout
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

_GET = RequestType.GET


@dataclass
class IoStats:
    """Request/byte accounting for one worker's I/O."""

    requests: int = 0
    read_requests: int = 0
    write_requests: int = 0
    retried: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    request_sizes: list[float] = field(default_factory=list)


class IoStack:
    """Chunked, concurrent reads and writes against a storage service."""

    def __init__(self, env: Environment, storage: StorageService,
                 endpoint: Endpoint,
                 chunk_bytes: float = DEFAULT_CHUNK_BYTES,
                 concurrency: int = DEFAULT_CONCURRENCY) -> None:
        if chunk_bytes <= 0 or concurrency <= 0:
            raise ValueError("chunk_bytes and concurrency must be positive")
        self.env = env
        self.storage = storage
        self.endpoint = endpoint
        self.chunk_bytes = float(chunk_bytes)
        self.concurrency = concurrency
        self.stats = IoStats()
        self._deferred_bytes = 0.0
        self._telemetry = get_recorder()
        #: Parent span for this stack's storage spans; the worker sets it
        #: to its own span so reads/writes nest inside the worker.
        self.span = None

    # -- reads ---------------------------------------------------------------

    def read_object(self, key: str, logical_bytes: float | None = None):
        """Process: fetch ``key`` in parallel chunks.

        Returns the stored object (its payload is the full physical
        content — range semantics only affect metering and timing).
        """
        started = self.env.now
        obj = self.storage.head(key)
        size = float(logical_bytes if logical_bytes is not None else obj.size)
        chunks = _chunk_sizes(size, self.chunk_bytes)
        # Delegated, so no local keeps a request: a failed one's error
        # would keep this frame, and the frame the request.
        yield from self.chunk_requests(key, chunks, False)
        self.read_done(key, size, len(chunks), started, False)
        return obj

    def chunk_requests(self, key: str, chunks: list[float],
                       defer_transfer: bool):
        """The :class:`RangeGet` of each chunk, in order, started a window
        of ``concurrency`` at a time: a window starts once whoever reads
        the requests has asked past the last one of the window before."""
        for first in range(0, len(chunks), self.concurrency):
            yield from [RangeGet(self, key, nbytes, defer_transfer)
                        for nbytes in chunks[first:first + self.concurrency]]

    def read_done(self, key: str, size: float, chunks: int, started: float,
                  defer_transfer: bool) -> None:
        """Account for a finished read of ``size`` logical bytes."""
        if defer_transfer:
            self._deferred_bytes += size
        if self._telemetry is not None:
            self._telemetry.record_span(
                "storage.read", started, self.env.now, parent=self.span,
                category="storage",
                attrs={"key": key, "bytes": size,
                       "service": self.storage.name,
                       "chunks": chunks})
            self._telemetry.histogram("storage.read.latency_s").record(
                self.env.now - started)

    def bulk_transfer(self):
        """Process: move all deferred bytes in one aggregate flow."""
        nbytes = self._deferred_bytes
        self._deferred_bytes = 0.0
        if nbytes <= 0:
            return
        started = self.env.now
        yield from self.storage._transfer(_GET, nbytes, self.endpoint)
        if self._telemetry is not None:
            self._telemetry.record_span(
                "storage.bulk_transfer", started, self.env.now,
                parent=self.span, category="storage",
                attrs={"bytes": nbytes, "service": self.storage.name})

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
        if self._telemetry is not None:
            self._telemetry.record_span(
                "storage.write", started, self.env.now, parent=self.span,
                category="storage",
                attrs={"key": key, "bytes": logical_bytes,
                       "service": self.storage.name})
            self._telemetry.histogram("storage.write.latency_s").record(
                self.env.now - started)
        return obj


class RangeGet(Event):
    """One chunk's range request, re-triggered when it straggles.

    A callback-driven state machine: each method is one step, and the
    event itself is what the reader yields. It ends with ``None`` once an
    attempt has moved the chunk, or fails with the first error that is
    not a retryable :class:`StorageError`.

    Each step pushes a kernel event exactly where a process-per-attempt
    design would: a start (priority 0) and a termination (priority 1) for
    the request and for every attempt, and a trigger (priority 1) for
    every race between an attempt and its deadline. So per attempt:

    * :meth:`_attempt`: the attempt's start and its deadline ``Timeout``;
    * :meth:`_fetch`, at the start: the fault check, the latency draw and
      admission, then the latency ``Timeout``, or the attempt's end at
      once if one of them raised;
    * :meth:`_on_latency`: the transfer's flow, unless deferred;
    * :meth:`_transferred`: the attempt's end;
    * :meth:`_ended` or :meth:`_on_deadline`, whichever pops first: the
      race's trigger;
    * :meth:`_decided`, at the trigger: the request's own end, a backoff
      ``Timeout`` before the next attempt, or, for a straggler, an
      interrupt (priority 0) that ends the abandoned attempt, and the
      next attempt at once.

    Keeping every entry keeps ``scheduled_events``, pop order, RNG draw
    order and every timestamp. A decided race drops the callback its
    loser still holds (the deadline, or an abandoned attempt's pending
    wait), so a finished request frees by reference count.
    """

    __slots__ = ("io", "key", "nbytes", "defer_transfer", "timeout_s",
                 "backoff", "_deadline", "_wait", "_running", "_error")

    def __init__(self, io: IoStack, key: str, nbytes: float,
                 defer_transfer: bool) -> None:
        env = io.env
        Event.__init__(self, env)
        self.io = io
        self.key = key
        self.nbytes = nbytes
        self.defer_transfer = defer_transfer
        self.timeout_s = max(STRAGGLER_MIN_TIMEOUT_S,
                             STRAGGLER_FACTOR * nbytes
                             / STRAGGLER_EXPECTED_RATE)
        self.backoff = 0.05
        #: The pending deadline while the attempt's race is undecided.
        self._deadline = None
        #: What the attempt waits on: its latency timeout, its flow's
        #: ``done``, or, once it has ended, the entry of that end. ``None``
        #: once the end has been popped.
        self._wait = None
        #: Whether the attempt has not ended yet.
        self._running = False
        #: The error the attempt ended with, until the race is decided.
        self._error = None
        Step(env, 0, self._attempt)

    def _attempt(self, _event=None) -> None:
        stats = self.io.stats
        stats.requests += 1
        stats.read_requests += 1
        stats.request_sizes.append(self.nbytes)
        env = self.env
        Step(env, 0, self._fetch)
        self._running = True
        self._deadline = deadline = Timeout(env, self.timeout_s)
        deadline.callbacks.append(self._on_deadline)

    def _fetch(self, _event) -> None:
        storage = self.io.storage
        key = self.key
        try:
            storage.check_fault(_GET, key)
            latency = storage.read_latency.sample_one(storage._rng)
            storage._admit_one(_GET, key)
        except Exception as exc:
            self._error = exc
            self._running = False
            self._wait = Step(self.env, 1, self._ended)
            # The traceback keeps this frame: no local of it may lead
            # back to the error (docs/performance.md, "Garbage").
            self = None
            return
        self._wait = wait = Timeout(self.env, latency)
        wait.callbacks.append(self._transferred if self.defer_transfer
                              else self._on_latency)

    def _on_latency(self, _event) -> None:
        flow = self.io.storage._open_flow(_GET, self.nbytes, self.io.endpoint)
        if flow is None:
            self._transferred(_event)
        else:
            self._wait = done = flow.done
            done.callbacks.append(self._transferred)

    def _transferred(self, _event) -> None:
        self.io.storage.stats.record(_GET, "ok", nbytes=self.nbytes)
        self._running = False
        self._wait = Step(self.env, 1, self._ended)

    def _ended(self, _event) -> None:
        self._wait = None
        deadline = self._deadline
        if deadline is not None:
            # The attempt decides the race: its deadline stays in the
            # heap and pops with nothing to call.
            self._deadline = None
            deadline.callbacks.clear()
            Step(self.env, 1, self._decided)

    def _on_deadline(self, _event) -> None:
        self._deadline = None
        Step(self.env, 1, self._decided)

    def _decided(self, _event) -> None:
        io = self.io
        wait = self._wait
        if wait is None:
            # The attempt's end came first. An attempt fails only at its
            # start, a second or more before its deadline, so a failed
            # attempt has always decided its own race.
            error = self._error
            if error is None:
                io.stats.bytes_read += self.nbytes
                self.succeed()
                return
            self._error = None
            if not (isinstance(error, StorageError) and error.retryable):
                self.fail(error)
                return
            # Throttled or timed out service-side: retry with exponential
            # backoff (Section 4.4.1).
            io.stats.retried += 1
            Timeout(self.env, self.backoff).callbacks.append(self._attempt)
            self.backoff = min(self.backoff * 2.0, 5.0)
            return
        # Straggler: abandon and re-trigger (Section 3.2). Whatever the
        # attempt waits on, or its end if that is still queued,
        # reaches nobody now; a running attempt is interrupted.
        wait.callbacks.clear()
        if self._running:
            Step(self.env, 0, _interrupted)
        io.stats.retried += 1
        if io._telemetry is not None:
            io._telemetry.event(
                self.env.now, "io.straggler_retrigger",
                category="storage", key=self.key, bytes=self.nbytes,
                timeout_s=self.timeout_s, service=io.storage.name)
        self._attempt()


def _interrupted(event: Event) -> None:
    """An abandoned attempt's interrupt: the attempt ends at once, and
    its end reaches nobody."""
    Step(event.env, 1)


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
