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

import pytest

from repro.core import CloudSim
from repro.datagen import load_table, scaled_spec
from repro.engine import SkyriseEngine
from repro.engine.queries import tpch_q12
from repro.futures.future import ResponseFuture
from repro.futures.workloads import run_wordcount
from repro.serve import default_tenant_mix, run_serving_workload
from repro.sim import AnyOf, Environment, Event, Process, Timeout
from repro.storage.errors import SlowDown


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
