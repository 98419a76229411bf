"""Garbage gate: the DES request path frees by reference count.

Each case runs with the cycle collector off and asserts that a
collection afterwards finds nothing: no failed process, race or fabric
flow may leave a reference cycle behind (docs/performance.md, "Garbage:
the kernel frees by reference count"). The simulated outcome is pinned
beside it, so a fix for garbage cannot pass by changing the run.
"""

import gc
import weakref

import pytest

from repro.core import CloudSim
from repro.datagen import load_table, scaled_spec
from repro.engine import SkyriseEngine
from repro.engine.queries import tpch_q12
from repro.sim import AnyOf, Environment, Process
from repro.storage.errors import SlowDown


@pytest.fixture
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


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
