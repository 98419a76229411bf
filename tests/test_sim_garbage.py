"""Garbage gate: the DES request path frees by reference count.

Each case runs with the cycle collector off and asserts that a
collection afterwards finds nothing: no failed process, race or fabric
flow may leave a reference cycle behind (docs/performance.md, "Garbage:
the kernel frees by reference count"). The simulated outcome is pinned
beside it, so a fix for garbage cannot pass by changing the run.

The futures wordcount and the serving window build their sim inside the
function under test and drop it on return, so a collection there always
finds the sim's own teardown; those two cases take a census of what was
found instead and gate the kernel objects in it.
"""

import gc
import weakref
from types import GeneratorType

import numpy as np
import pytest

from repro import units
from repro.core import CloudSim
from repro.datagen import load_table, scaled_spec
from repro.engine import SkyriseEngine
from repro.engine.io import IoStack, RangeGet
from repro.engine.queries import tpch_q12
from repro.engine.shuffle import ShuffleReader, shuffle_key
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema
from repro.futures.future import ResponseFuture
from repro.futures.workloads import run_wordcount
from repro.network import Fabric, lambda_shaper
from repro.serve import default_tenant_mix, run_serving_workload
from repro.sim import AnyOf, Environment, Event, Process, RandomStreams, Timeout
from repro.storage import S3Standard
from repro.storage.errors import SlowDown, StorageError
from repro.storage.latency import LatencyModel


@pytest.fixture
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def census(collector_off):
    """``gc.garbage``, set to keep what a ``gc.collect()`` finds.

    ``DEBUG_SAVEALL`` parks every unreachable object there instead of
    freeing it, so what only the collector could free can be counted by
    type.
    """
    gc.collect()  # earlier tests' leftovers are not this run's
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _tiny_q12():
    """Q12 at the ledger's tiny sizes, ready to run (tables loaded)."""
    sim = CloudSim(seed=60)
    s3 = sim.s3()
    engine = SkyriseEngine(sim.env, sim.platform, storage={"s3-standard": s3})
    for table, partitions, rows in (("lineitem", 24, 16), ("orders", 6, 64)):
        engine.register_table(sim.run(load_table(sim.env, s3, scaled_spec(
            table, partitions, rows_per_partition=rows))))
    engine.deploy()
    query = tpch_q12(lineitem_fragments=8, orders_fragments=2,
                     join_fragments=4)
    return sim, s3, engine, query


def _run(sim, s3, engine, query):
    """Run ``query``; returns (events, runtime, requests, failures)."""
    events = sim.env.scheduled_events
    requests, failures = s3.stats.total(), s3.stats.failures
    result = sim.run(engine.run_query(query))
    return (sim.env.scheduled_events - events, round(result.runtime, 9),
            s3.stats.total() - requests, s3.stats.failures - failures)


def test_q12_leaves_no_garbage(collector_off):
    sim, s3, engine, query = _tiny_q12()
    gc.collect()  # the build's own leftovers
    outcome = _run(sim, s3, engine, query)
    assert gc.collect() == 0  # 420 before the kernel freed by refcount
    assert outcome == (1350, 6.656422517, 127, 0)


def test_injected_faults_leave_no_garbage(collector_off):
    sim, s3, engine, query = _tiny_q12()
    calls = [0]

    def every_third_get(op, key, now):
        calls[0] += 1
        if op == "get" and calls[0] % 3 == 0:
            return SlowDown("injected")
        return None

    s3.fault_hook = every_third_get
    gc.collect()
    outcome = _run(sim, s3, engine, query)
    assert gc.collect() == 0  # 1,112 before
    assert outcome == (1624, 7.684175720, 183, 56)


def _io_stack(link=None):
    """An S3 bucket and one worker's I/O stack: 4 MiB chunks, 8 in flight,
    behind a Lambda ingress shaper and, optionally, a shared link."""
    env = Environment()
    fabric = Fabric(env)
    s3 = S3Standard(env, fabric, RandomStreams(seed=3))
    links = () if link is None else (fabric.link(link),)
    endpoint = fabric.endpoint("worker", ingress=lambda_shaper("in"),
                               links=links)
    io = IoStack(env, s3, endpoint, chunk_bytes=4 * units.MiB, concurrency=8)
    return env, fabric, s3, io, links


def _store(env, s3, objects):
    """Put ``{key: (payload, logical size)}`` before the run under test."""
    def put(env):
        for key, (payload, size) in objects.items():
            yield from s3.put(key, payload, size=size)
    env.run(until=env.process(put(env)))


def test_stragglers_leave_no_garbage(collector_off):
    """Both kinds of straggler are abandoned and re-triggered: first-byte
    ones from a heavy latency tail, transfer ones on a link that 24 other
    flows hold for the first two seconds."""
    env, fabric, s3, io, links = _io_stack(link=64 * units.MiB)
    _store(env, s3, {f"in/{i}": (None, 12 * 4 * units.MiB) for i in range(3)})
    s3.read_latency = LatencyModel(median=0.03, p95=0.4, tail_alpha=1.1,
                                   tail_probability=0.3, ceiling=3.0)
    src, dst = fabric.endpoint("noise-src"), fabric.endpoint("noise-dst")
    noise = [fabric.open_flow(src, dst, links) for _ in range(24)]

    def quiet(env):
        yield env.timeout(2.0)
        for flow in noise:
            flow.stop()

    def reader(env):
        for i in range(3):
            yield from io.read_object(f"in/{i}")

    flows = next(fabric._flow_ids)
    events = env.scheduled_events
    env.process(quiet(env))
    gc.collect()
    env.run(until=env.process(reader(env)))
    assert gc.collect() == 0
    transfers = next(fabric._flow_ids) - flows - 1
    # Every chunk moved once; each other transfer is one a straggler
    # abandoned, and the other retries are first-byte stragglers.
    assert (io.stats.retried, transfers - 36, s3.stats.failures) \
        == (19, 14, 0)
    assert (round(env.now, 9), env.scheduled_events - events) \
        == (7.868334872, 601)


def test_failed_requests_leave_no_garbage(collector_off):
    """Reads that fail for good: a non-retryable fault on a one-chunk read,
    on the first of three chunks and on a shuffle slice, and a slice
    whose producer object is missing."""
    env, fabric, s3, io, _ = _io_stack()
    piece = RecordBatch(Schema([Field("v", DataType.INT64)]),
                        {"v": np.arange(3)})
    index = {"combined": True, "epoch": 0, "partitions": [piece],
             "logical": [1_000.0], "rows": [3]}
    _store(env, s3, {
        "in/0": (None, units.MiB), "in/1": (None, 12 * units.MiB),
        shuffle_key("q", "p", 0): (index, 1_000.0),
        shuffle_key("q", "p", 1): (index, 1_000.0)})
    failing = {"in/0", "in/1", shuffle_key("q", "p", 1)}

    def fault_hook(op, key, now):
        if op == "get" and key in failing:
            failing.discard(key)
            return StorageError("injected, not retryable")
        return None

    s3.fault_hook = fault_hook
    reads = [lambda: io.read_object("in/0"), lambda: io.read_object("in/1"),
             lambda: ShuffleReader(io, "q", "p", 2, 0, concurrency=1).read(),
             lambda: ShuffleReader(io, "q", "p", 3, 0, concurrency=1).read()]

    def reader(env):
        failed = []
        for read in reads:
            try:
                yield from read()
            except StorageError as exc:
                failed.append((round(env.now, 9), type(exc).__name__))
        return failed

    gc.collect()
    failed = env.run(until=env.process(reader(env)))
    assert gc.collect() == 0  # 74 before: the shuffle reader kept the slice
    assert failed == [(0.139169744, "StorageError"),
                      (0.139169744, "StorageError"),
                      (0.17749636, "StorageError"),
                      (0.261043826, "NoSuchKey")]


class _WatchedProcess(Process):
    __slots__ = ("__weakref__",)


def test_failed_attempt_dies_once_its_waiter_moves_on(collector_off):
    env = Environment()
    attempts = []

    def attempt(env):
        yield env.timeout(1.0)
        raise SlowDown("throttled")

    def caller(env):
        proc = _WatchedProcess(env, attempt(env))
        attempts.append(weakref.ref(proc))
        try:
            yield AnyOf(env, [proc, env.timeout(30.0)])
        except SlowDown:
            proc = None
        yield env.timeout(1.0)  # the backoff: taken outside the handler
        assert attempts[0]() is None
        return env.now

    done = env.process(caller(env))
    assert env.run(until=done) == 2.0
    assert env.peek() == 30.0  # the deadline is still due, holding nothing


class _WatchedRangeGet(RangeGet):
    __slots__ = ("__weakref__",)


def test_a_request_through_the_same_time_lanes_frees_by_refcount(
        collector_off):
    """A ranged GET's start, end, race trigger and the request's own end
    are due at the time they are pushed, so they go through the kernel's
    FIFO lanes rather than its heap: the lanes keep nothing once they
    have popped it."""
    env, _, s3, io, _ = _io_stack()
    _store(env, s3, {"in/0": (None, units.MiB)})
    request = _WatchedRangeGet(io, "in/0", units.MiB, False)
    watched = weakref.ref(request)
    assert [len(lane) for lane in env._lanes] == [1, 0]  # its start
    gc.collect()
    env.run(until=request)
    request = None
    env.run()
    assert watched() is None
    assert gc.collect() == 0
    assert not any(env._lanes)


def _kernel_objects(garbage):
    """The sim-kernel part of a census, minus timeouts not yet due.

    A sim dropped mid-life takes the timeouts pending in its heap with
    it; that is teardown. A *processed* timeout, like any other event,
    process or generator in the census, is one the run left behind.
    """
    return [obj for obj in garbage
            if isinstance(obj, (Event, GeneratorType))
            and (type(obj) is not Timeout or obj.processed)]


def test_futures_wordcount_leaves_no_kernel_garbage(census):
    outcome = run_wordcount(seed=7, objects=16, chunks_per_object=4)
    gc.collect()
    # 1,033 objects before futures completed with a bare ``succeed()``:
    # 65 each (64 map calls + the reducer) of future, drive process,
    # generator, race and slot request, and 130 events. What is left is
    # the dropped sim: its environment, one timeout, scenario closures.
    assert _kernel_objects(census) == []
    assert [obj for obj in census if isinstance(obj, ResponseFuture)] == []
    assert (outcome["runtime_s"], outcome["digest"]) \
        == (3.239559874, "dd50c434ca670857")


def test_serving_window_leaves_no_kernel_garbage(census):
    outcome = run_serving_workload(
        default_tenant_mix(rate_scale=6.0), policy="fifo", window_s=120.0,
        seed=1, max_concurrent_queries=1)
    gc.collect()
    kernel = _kernel_objects(census)
    # ~2,900 objects: the dropped sim and the result records its
    # platform kept for 86 queries (invocation, worker, stage reports).
    # Of the kernel, nothing a query used — only the scheduler loop,
    # which was parked on its wake event when the window closed.
    assert sorted(type(obj).__name__ for obj in kernel) \
        == ["Event", "Process", "generator"]
    assert not any(obj.processed for obj in kernel
                   if isinstance(obj, Event))
    assert (outcome.total_completed, outcome.total_shed,
            round(outcome.total_cost_usd, 9)) == (86, 13, 0.025475421)
