"""Range requests as step objects, against the process chain they replaced.

:class:`~repro.engine.io.RangeGet` (one chunk) and
:class:`~repro.engine.shuffle.SliceRead` (one shuffle slice) push one
kernel event wherever the generator processes before them did, so a run
must pop the same events at the same times and leave the same counters.
The oracle is that process chain, kept here verbatim in test-local
subclasses (less the deleted ``IoStats.read_time`` accounting). Both run
the same drawn plans on a real :class:`S3Standard` and :class:`Fabric`
with Lambda shapers: chunk counts up to 40 (several windows), deferred
and direct transfers, a partition quota small enough to throttle,
injected ``SlowDown``/``RequestTimeout``/non-retryable faults,
first-byte latencies past the 1 s straggler deadline and links slow
enough for transfers to overrun it.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.engine.io import (
    STRAGGLER_EXPECTED_RATE,
    STRAGGLER_FACTOR,
    STRAGGLER_MIN_TIMEOUT_S,
    IoStack,
    _chunk_sizes,
)
from repro.engine.shuffle import ShuffleReader, shuffle_key
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema
from repro.network import Fabric, lambda_shaper
from repro.sim import AnyOf, Environment, RandomStreams
from repro.storage import S3Standard
from repro.storage.base import RequestType
from repro.storage.errors import RequestTimeout, SlowDown, StorageError
from repro.storage.latency import LatencyModel
from repro.storage import partitions


# -- the process chain before RangeGet and SliceRead, verbatim ---------------

class _ProcessIoStack(IoStack):
    def read_object(self, key: str, logical_bytes: float | None = None,
                    defer_transfer: bool = False):
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
        if self._telemetry is not None:
            self._telemetry.record_span(
                "storage.read", started, self.env.now, parent=self.span,
                category="storage",
                attrs={"key": key, "bytes": size,
                       "service": self.storage.name,
                       "chunks": len(chunks)})
            self._telemetry.histogram("storage.read.latency_s").record(
                self.env.now - started)
        return obj

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


class _ProcessShuffleReader(ShuffleReader):
    def read(self):
        """Process: range-read this partition from each producer object.

        Returns the concatenated :class:`RecordBatch`.
        """
        if self.producer_fragments <= 0:
            raise ValueError("shuffle read with zero producers")
        env = self.io.env
        batches: list[RecordBatch] = []
        fragments = list(range(self.producer_fragments))
        while fragments:
            window = fragments[:self.concurrency]
            fragments = fragments[self.concurrency:]
            processes = [env.process(self._read_slice(fragment),
                                     name="shuffle-slice")
                         for fragment in window]
            for process in processes:
                batches.append((yield process))
        # The per-slice requests deferred their payload movement; pull
        # the combined bytes through the worker's network budget once.
        yield from self.io.bulk_transfer()
        # An empty piece adds no rows and ``+ 0.0`` to the logical sum.
        kept = [batch for batch in batches
                if len(batch) or batch.logical_bytes]
        return RecordBatch.concat(kept or batches[:1])

    def _read_slice(self, fragment: int):
        """Process: one range request for this consumer's slice.

        The request size is the slice's logical size — sub-KiB up to
        MiBs, the "Shuffle I/O Size" column of Table 6. Returns a new
        batch over the stored piece's arrays.
        """
        key = shuffle_key(self.query_id, self.pipeline_id, fragment)
        head = self.io.storage.head(key)
        index = head.payload
        logical = float(index["logical"][self.partition])
        if index.get("combined", True):
            yield from self.io.read_object(key,
                                           logical_bytes=max(logical, 1.0),
                                           defer_transfer=True)
            piece = index["partitions"][self.partition]
        else:
            part_key = f"{key}/p-{self.partition:05d}"
            obj = yield from self.io.read_object(
                part_key, logical_bytes=max(logical, 1.0),
                defer_transfer=True)
            piece = obj.payload
        return RecordBatch(piece.schema, piece.columns, logical_bytes=logical)


# -- one drawn plan, run through either path ----------------------------------

_SCHEMA = Schema([Field("v", DataType.INT64)])
#: What the fault hook injects, by the name a plan draws.
_FAULTS = {"slowdown": lambda: SlowDown("injected"),
           "timeout": lambda: RequestTimeout("injected")}
#: How long a plan may run, in simulated seconds and in events (checked
#: every quarter second): stragglers on a saturated link re-trigger for
#: as long as it stays saturated, adding a flow each time.
_HORIZON_S = 90.0
_EVENT_BUDGET = 4_000


@dataclasses.dataclass
class Plan:
    seed: int
    #: Per-partition GET quota: a few per second throttles most requests.
    quota: float
    #: Share of first-byte latencies in the heavy tail, and its ceiling
    #: (above the 1 s deadline: first-byte stragglers).
    tail: float
    ceiling: float
    chunk_bytes: float
    concurrency: int
    #: Capacity of a link every worker endpoint crosses, or ``None``.
    link: float | None
    #: Neighbour flows that share the link from the start: how many, and
    #: for how long (transfer stragglers that end once they stop).
    noise: tuple
    #: Per worker, its reads in turn: (chunks, transfer deferred).
    reads: list
    #: Per producer, the slice size in chunks (shuffle layout below).
    slices: list
    consumers: int
    combined: bool
    #: The fault hook's answer to its n-th call (``None``: no fault),
    #: cycled; and the one call, if any, that fails for good.
    faults: list
    fatal_at: int | None


class _DeferringIoStack(IoStack):
    """``IoStack`` whose ``read_object`` may defer its transfer, as the
    shuffle's slice reads do, so a plan can draw a deferred read of any
    chunk count through the step objects."""

    def read_object(self, key: str, logical_bytes: float | None = None,
                    defer_transfer: bool = False):
        if not defer_transfer:
            return (yield from super().read_object(key, logical_bytes))
        started = self.env.now
        obj = self.storage.head(key)
        size = float(logical_bytes if logical_bytes is not None else obj.size)
        chunks = _chunk_sizes(size, self.chunk_bytes)
        yield from self.chunk_requests(key, chunks, True)
        self.read_done(key, size, len(chunks), started, True)
        return obj


def _run(plan: Plan, io_cls=_DeferringIoStack, reader_cls=ShuffleReader):
    """:func:`_simulate` with ``plan.quota`` as every partition's GET
    quota."""
    with mock.patch.object(partitions, "READ_IOPS_PER_PARTITION",
                           plan.quota):
        return _simulate(plan, io_cls, reader_cls)


def _simulate(plan: Plan, io_cls, reader_cls):
    env = Environment()
    pops = []

    class Monitor:
        def on_event(self, now, queue_depth):
            pops.append((now, queue_depth))

        def on_process(self, name):
            pass

    fabric = Fabric(env)
    s3 = S3Standard(env, fabric, RandomStreams(seed=plan.seed))
    s3.read_latency = LatencyModel(median=0.03, p95=0.4,
                                   tail_probability=plan.tail,
                                   tail_alpha=1.1, ceiling=plan.ceiling)
    links = () if plan.link is None else (fabric.link(plan.link),)

    def stack(name):
        endpoint = fabric.endpoint(name, ingress=lambda_shaper("in"),
                                   egress=lambda_shaper("out"), links=links)
        return io_cls(env, s3, endpoint, chunk_bytes=plan.chunk_bytes,
                      concurrency=plan.concurrency)

    def store(env):
        for worker, reads in enumerate(plan.reads):
            for i, (chunks, _) in enumerate(reads):
                yield from s3.put(f"in/{worker}/{i}", None,
                                  size=chunks * plan.chunk_bytes - 1.0)
        piece = RecordBatch(_SCHEMA, {"v": np.arange(3)})
        for fragment, chunks in enumerate(plan.slices):
            logical = [chunks * plan.chunk_bytes * (c + 1) / plan.consumers
                       for c in range(plan.consumers)]
            key = shuffle_key("q", "p", fragment)
            if plan.combined:
                yield from s3.put(key, {
                    "combined": True, "epoch": 0,
                    "partitions": [piece] * plan.consumers,
                    "logical": logical, "rows": [3] * plan.consumers},
                    size=sum(logical))
                continue
            for c in range(plan.consumers):
                yield from s3.put(f"{key}/p-{c:05d}", piece, size=logical[c])
            yield from s3.put(key, {"combined": False, "epoch": 0,
                                    "logical": logical}, size=1.0)

    env.run(until=env.process(store(env)))
    calls = [0]

    def fault_hook(op, key, now):
        calls[0] += 1
        if calls[0] == plan.fatal_at:
            return StorageError("injected, not retryable")
        fault = (plan.faults[calls[0] % len(plan.faults)]
                 if plan.faults else None)
        return None if fault is None else _FAULTS[fault]()

    s3.fault_hook = fault_hook
    env.set_monitor(Monitor())
    events = env.scheduled_events
    noise = []
    if links and plan.noise[0]:
        src, dst = fabric.endpoint("noise-src"), fabric.endpoint("noise-dst")
        noise = [fabric.open_flow(src, dst, links)
                 for _ in range(plan.noise[0])]

        def quiet(env):
            yield env.timeout(plan.noise[1])
            for flow in noise:
                flow.stop()

        env.process(quiet(env))
    log, stacks = [], []

    def worker(env, name, reads):
        io = stack(name)
        stacks.append(io)
        for i, (chunks, defer) in enumerate(reads):
            try:
                obj = yield from io.read_object(
                    f"in/{name}/{i}", defer_transfer=defer)
                if defer:
                    yield from io.bulk_transfer()
            except StorageError as exc:
                log.append((env.now, name, i, type(exc).__name__))
                continue
            log.append((env.now, name, i, obj.key))

    def consumer(env, partition):
        io = stack(f"c{partition}")
        stacks.append(io)
        reader = reader_cls(io, "q", "p", len(plan.slices), partition,
                            concurrency=plan.concurrency)
        try:
            batch = yield from reader.read()
        except StorageError as exc:
            log.append((env.now, "c", partition, type(exc).__name__))
            return
        log.append((env.now, "c", partition, batch.logical_bytes,
                    batch.column("v").tolist()))

    for name, reads in enumerate(plan.reads):
        env.process(worker(env, name, reads))
    if plan.slices:
        for partition in range(plan.consumers):
            env.process(consumer(env, partition))
    try:
        while (env.peek() <= _HORIZON_S
               and env.scheduled_events - events < _EVENT_BUDGET):
            env.run(until=min(env.now + 0.25, _HORIZON_S))
    except StorageError as exc:
        # A chunk failed after its read had already failed: nobody waits
        # on it, so the kernel aborts the run (as it always has).
        log.append((env.now, "crash", type(exc).__name__))
    return {
        "log": log,
        "pops": pops,
        "events": env.scheduled_events - events,
        "io": [dataclasses.asdict(io.stats) for io in stacks],
        "requests": (sorted(s3.stats.counts.items()), s3.stats.bytes_read),
        "flows": next(fabric._flow_ids) - len(noise),
    }


_PLANS = st.builds(
    Plan,
    seed=st.integers(0, 2**16),
    quota=st.sampled_from([1.0, 8.0, 5_500.0]),
    tail=st.sampled_from([0.0, 0.1, 0.4]),
    ceiling=st.sampled_from([0.5, 3.0]),
    chunk_bytes=st.sampled_from([64 * units.KiB, 1 * units.MiB,
                                 4 * units.MiB]),
    concurrency=st.integers(1, 32),
    link=st.sampled_from([None, 64 * units.MiB, 512 * units.MiB]),
    noise=st.tuples(st.integers(0, 30), st.sampled_from([0.5, 3.0])),
    reads=st.lists(st.lists(st.tuples(st.integers(1, 40), st.booleans()),
                            min_size=1, max_size=3), max_size=3),
    slices=st.lists(st.integers(1, 3), max_size=8),
    consumers=st.integers(1, 3),
    combined=st.booleans(),
    faults=st.lists(st.sampled_from([None, None, None, "slowdown",
                                     "timeout"]), max_size=12),
    fatal_at=st.none() | st.integers(1, 1000),
)


@settings(max_examples=100, deadline=None)
@given(plan=_PLANS)
def test_step_objects_pop_what_the_process_chain_popped(plan):
    assert _run(plan) == _run(plan, _ProcessIoStack, _ProcessShuffleReader)


# -- the plans reach every path -------------------------------------------------

def _plan(**changes):
    base = Plan(seed=1, quota=5_500.0, tail=0.0, ceiling=3.0,
                chunk_bytes=4 * units.MiB, concurrency=8, link=None,
                noise=(0, 0.0), reads=[[(12, False)]], slices=[],
                consumers=1, combined=True, faults=[], fatal_at=None)
    return dataclasses.replace(base, **changes)


def _retries(outcome):
    """(retried, retryable failures, transfers) of a run."""
    counts = dict(outcome["requests"][0])
    retryable = (counts.get(("get", "throttled"), 0)
                 + counts.get(("get", "injected-fault"), 0))
    return sum(io["retried"] for io in outcome["io"]), retryable, \
        outcome["flows"]


def test_a_heavy_tail_makes_first_byte_stragglers():
    plan = _plan(tail=0.4, reads=[[(12, True)]])
    outcome = _run(plan)
    retried, retryable, _ = _retries(outcome)
    assert retried > retryable == 0
    assert outcome == _run(plan, _ProcessIoStack, _ProcessShuffleReader)


def test_a_busy_link_makes_transfer_stragglers():
    plan = _plan(link=64 * units.MiB, noise=(24, 2.0))
    outcome = _run(plan)
    retried, retryable, flows = _retries(outcome)
    ok = dict(outcome["requests"][0])[("get", "ok")]
    # Every retry is a straggler caught mid-transfer: its flow was
    # started, and abandoned.
    assert retried == flows - ok > 0 == retryable
    assert outcome == _run(plan, _ProcessIoStack, _ProcessShuffleReader)


def test_a_small_quota_and_injected_faults_throttle_and_fail():
    plan = _plan(quota=4.0, reads=[[(12, True), (3, False)], [(30, True)]],
                 slices=[1, 2, 3], consumers=2,
                 faults=[None, "slowdown", None, "timeout"], fatal_at=40)
    outcome = _run(plan)
    counts = dict(outcome["requests"][0])
    assert counts[("get", "throttled")] > 0
    assert counts[("get", "injected-fault")] > 0
    assert any(entry[-1] == "StorageError" for entry in outcome["log"])
    assert outcome == _run(plan, _ProcessIoStack, _ProcessShuffleReader)


def test_slices_larger_than_a_chunk_read_in_windows():
    plan = _plan(chunk_bytes=256 * units.KiB, concurrency=2, reads=[],
                 slices=[3, 3, 2], consumers=3, combined=False)
    outcome = _run(plan)
    assert max(io["read_requests"] for io in outcome["io"]) == 8
    assert outcome == _run(plan, _ProcessIoStack, _ProcessShuffleReader)
