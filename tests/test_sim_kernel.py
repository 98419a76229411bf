"""Unit tests for the discrete-event simulation kernel."""

import heapq
import itertools
import traceback
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Step,
)
from repro.sim.events import PENDING, ConditionValue


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5.0
    assert env.now == 5.0


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    trace = []

    def proc(env):
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            trace.append(env.now)

    env.process(proc(env))
    env.run()
    assert trace == [1.0, 3.0, 6.0]


def test_two_processes_interleave():
    env = Environment()
    trace = []

    def ticker(env, name, period):
        for _ in range(3):
            yield env.timeout(period)
            trace.append((name, env.now))

    env.process(ticker(env, "a", 1.0))
    env.process(ticker(env, "b", 1.5))
    env.run()
    # At t=3.0 both tick; "b" scheduled its timeout earlier (at t=1.5),
    # so FIFO tie-breaking runs it first.
    assert trace == [
        ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0), ("a", 3.0), ("b", 4.5),
    ]


def test_run_until_time_stops_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(100.0)

    env.process(proc(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_time_reaches_it_when_the_queue_drains_first():
    env = Environment()
    env.timeout(3.0)
    env.run(until=10.0)
    assert env.now == 10.0
    env.run()  # drained with no time given: the clock stays
    assert env.now == 10.0


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return 42

    p = env.process(proc(env))
    result = env.run(until=p)
    assert result == 42
    assert env.now == 2.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_wait_on_process_event():
    env = Environment()

    def child(env):
        yield env.timeout(3.0)
        return "done"

    def parent(env):
        value = yield env.process(child(env))
        return (value, env.now)

    p = env.process(parent(env))
    env.run()
    assert p.value == ("done", 3.0)


def test_uncaught_exception_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_waiting_process_receives_failure():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            return str(exc)

    p = env.process(parent(env))
    env.run()
    assert p.value == "inner"


def test_interrupt_delivers_cause():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            return (interrupt.cause, env.now)

    def interrupter(env, victim):
        yield env.timeout(5.0)
        victim.interrupt(cause="wakeup")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == ("wakeup", 5.0)


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yield_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0)
        t2 = env.timeout(4.0)
        values = yield AllOf(env, [t1, t2])
        return (set(values) == {t1, t2}, env.now)

    p = env.process(proc(env))
    env.run()
    assert p.value == (True, 4.0)


def test_any_of_triggers_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0)
        t2 = env.timeout(10.0)
        values = yield AnyOf(env, [t1, t2])
        return (list(values) == [t1], env.now)

    p = env.process(proc(env))
    env.run()
    assert p.value == (True, 1.0)


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc(env):
        yield AllOf(env, [])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_deterministic_tie_breaking_is_fifo():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("first", "second", "third"):
        env.process(proc(env, name))
    env.run()
    assert order == ["first", "second", "third"]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0
    env.run()
    assert env.peek() == float("inf")


def test_peek_is_now_while_an_event_is_due_now():
    env = Environment()
    env.run(until=2.0)
    env.timeout(5.0)
    env.event().succeed()
    assert env.peek() == 2.0
    env.run(until=3.0)
    assert (env.now, env.peek()) == (3.0, 7.0)


def test_schedule_rejects_a_priority_with_no_lane():
    env = Environment()
    for priority in (-1, 2):
        with pytest.raises(ValueError, match="priority"):
            env.schedule(env.event(), priority=priority)
    assert env.scheduled_events == 0


def test_condition_absorbs_late_concurrent_failures():
    """A second process failing after AnyOf/AllOf already triggered must
    not crash the simulation (its failure is absorbed by the condition)."""
    env = Environment()

    def fail_at(env, t, message):
        yield env.timeout(t)
        raise RuntimeError(message)

    def parent(env):
        first = env.process(fail_at(env, 1.0, "first"))
        second = env.process(fail_at(env, 2.0, "second"))
        try:
            yield AllOf(env, [first, second])
        except RuntimeError as exc:
            caught = str(exc)
        # Let the second failure land while nobody is waiting on it.
        yield env.timeout(5.0)
        return caught

    p = env.process(parent(env))
    env.run()
    assert p.value == "first"


def test_any_of_with_failure_fails_fast():
    env = Environment()

    def ok(env):
        yield env.timeout(10.0)
        return "late"

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("early failure")

    def parent(env):
        try:
            yield AnyOf(env, [env.process(ok(env)), env.process(bad(env))])
        except ValueError as exc:
            return (str(exc), env.now)

    p = env.process(parent(env))
    env.run()
    assert p.value == ("early failure", 1.0)


# -- a decided condition lets go of its pending timeouts ----------------------

def test_decided_race_unhooks_its_deadline():
    env = Environment()
    log = []

    def work(env):
        yield env.timeout(1.0)
        return "done"

    def racer(env, deadline):
        proc = env.process(work(env))
        yield AnyOf(env, [proc, deadline])
        log.append(("race", env.now, list(deadline.callbacks)))

    def latecomer(env, deadline):
        yield env.timeout(2.0)
        value = yield deadline
        log.append(("latecomer", env.now, value))

    deadline = env.timeout(30.0)
    env.process(racer(env, deadline))
    env.process(latecomer(env, deadline))
    env.run()
    # The race was decided by the process: nothing hangs off the deadline
    # until the latecomer parks on it, and it still pops at its time.
    assert log == [("race", 1.0, []), ("latecomer", 30.0, None)]
    assert env.now == 30.0

    # Against the same two events left independent, the race schedules one
    # event more (its own trigger) and ends at the same time: unhooking
    # neither cancels the deadline nor schedules anything.
    def scenario(race):
        env = Environment()
        members = [env.process(work(env)), env.timeout(30.0)]
        if race:
            AnyOf(env, members)
        env.run()
        return env.now, env.scheduled_events

    assert scenario(race=False) == (30.0, 4)
    assert scenario(race=True) == (30.0, 5)


def test_decided_condition_keeps_pending_processes_hooked():
    """Only timeouts are let go: a pending process may still fail, and
    the condition must be there to absorb it."""
    env = Environment()

    def ok(env):
        yield env.timeout(1.0)

    def fail_late(env):
        yield env.timeout(2.0)
        raise RuntimeError("late")

    def parent(env):
        late = env.process(fail_late(env))
        condition = AnyOf(env, [env.process(ok(env)), late])
        yield condition
        assert late.callbacks == [condition._on_member]
        yield env.timeout(5.0)
        return late.ok

    p = env.process(parent(env))
    env.run()  # would raise "late" had the condition unhooked the process
    assert p.value is False


def test_all_of_failing_early_unhooks_its_timeouts():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("early")

    def parent(env, slow):
        with pytest.raises(ValueError):
            yield AllOf(env, [env.process(bad(env)), slow])
        return env.now

    slow = env.timeout(10.0)
    p = env.process(parent(env, slow))
    env.run(until=p)
    assert p.value == 1.0
    assert slow.callbacks == []
    env.run()
    assert env.now == 10.0


def test_condition_decided_at_construction_unhooks_its_timeouts():
    env = Environment()
    done = env.timeout(0.0)
    env.run()
    pending = env.timeout(5.0)
    condition = AnyOf(env, [pending, done])
    assert condition.triggered
    assert pending.callbacks == []


# -- a stored failure carries no kernel frame ----------------------------------

def _explode():
    raise KeyError("boom")


def test_failure_traceback_starts_at_the_generator_frame():
    def worker(env):
        yield env.timeout(1.0)
        _explode()

    env = Environment()
    proc = env.process(worker(env))
    proc.defuse()
    env.run()
    stored = [frame.name for frame in
              traceback.extract_tb(proc.value.__traceback__)]
    assert stored == ["worker", "_explode"]

    # Unhandled: env.run() re-raises it, and the report still leads from
    # the generator to the raising function, with no _resume in between.
    env = Environment()
    env.process(worker(env))
    with pytest.raises(KeyError) as info:
        env.run()
    names = [frame.name for frame in
             traceback.extract_tb(info.value.__traceback__)]
    assert names[-2:] == ["worker", "_explode"]
    assert "_resume" not in names


def test_failure_passed_through_two_processes_keeps_both_user_frames():
    def inner(env):
        yield env.timeout(1.0)
        _explode()

    def outer(env):
        yield env.process(inner(env))

    env = Environment()
    proc = env.process(outer(env))
    proc.defuse()
    env.run()
    names = [frame.name for frame in
             traceback.extract_tb(proc.value.__traceback__)]
    assert names == ["outer", "inner", "_explode"]


# -- the parent commit's _Condition, verbatim, as oracle -----------------------

class _OracleCondition(Event):
    __slots__ = ("_events", "_pending")

    def __init__(self, env, events):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._pending = sum(1 for event in self._events
                            if event.callbacks is not None)
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._on_member)
        if not self._events and self._value is PENDING:
            self.succeed(ConditionValue())

    def _collect_values(self):
        values = ConditionValue()
        for event in self._events:
            if event.callbacks is None and event._ok:
                values[event] = event._value
        return values

    def _on_member(self, event):
        self._pending -= 1
        self._check(event)

    def _check(self, event):
        if not event._ok:
            event._defused = True
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event._value)
        elif self._satisfied():
            self.succeed(self._collect_values())


class _OracleAllOf(_OracleCondition):
    __slots__ = ()

    def _satisfied(self):
        return self._pending == 0


class _OracleAnyOf(_OracleCondition):
    __slots__ = ()

    def _satisfied(self):
        return self._pending < len(self._events)


class _Boom(Exception):
    pass


_DELAYS = st.integers(min_value=0, max_value=4)
_LEAVES = st.tuples(st.sampled_from(["timeout", "ok", "fail"]), _DELAYS)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.tuples(st.sampled_from(["any", "all"]),
                               st.lists(children, max_size=4)),
    max_leaves=12)


def _replay_tree(tree, build_at, any_of, all_of):
    """Create the leaves at t=0 and the conditions over them at
    ``build_at`` (so some members are already processed); log every
    node's completion and return the log with the event count."""
    env = Environment()
    log = []
    ids = {}

    def finish(env, delay, fail):
        yield env.timeout(delay)
        if fail:
            raise _Boom(delay)
        return delay

    def watch(event):
        ids[event] = node = len(ids)

        def on_done(event):
            value = event._value
            members = tuple(ids[member] for member in value) \
                if isinstance(value, ConditionValue) else ()
            log.append((env.now, node, event._ok, type(value).__name__,
                        members))
        event.callbacks.append(on_done)
        return event

    def leaves(node):
        kind, arg = node
        if kind in ("any", "all"):
            return (kind, [leaves(child) for child in arg])
        if kind == "timeout":
            return watch(env.timeout(float(arg)))
        return watch(env.process(finish(env, float(arg), kind == "fail")))

    def conditions(node):
        if not isinstance(node, tuple):
            return node
        kind, children = node
        members = [conditions(child) for child in children]
        return watch((any_of if kind == "any" else all_of)(env, members))

    def root(env, planted):
        yield env.timeout(float(build_at))
        try:
            yield conditions(planted)
        except _Boom:
            pass
        log.append((env.now, "root"))

    env.process(root(env, leaves(tree)))
    try:
        env.run()
    except _Boom:  # a leaf failed before any condition was there for it
        log.append((env.now, "crash"))
    return log, env.scheduled_events


@settings(max_examples=150, deadline=None)
@given(tree=_TREES, build_at=_DELAYS)
def test_conditions_complete_exactly_as_the_parent_commits_did(tree, build_at):
    assert _replay_tree(tree, build_at, AnyOf, AllOf) \
        == _replay_tree(tree, build_at, _OracleAnyOf, _OracleAllOf)


# -- the parent commit's heap-only kernel, as oracle for the lanes -------------

class _HeapLane:
    """A lane of the oracle: what the events append to it goes on the
    heap, under the key the parent's inlined pushes gave it."""

    __slots__ = ("env", "priority")

    def __init__(self, env, priority):
        self.env = env
        self.priority = priority

    def append(self, event):
        env = self.env
        heapq.heappush(env._queue, (env._now, self.priority, env._seq, event))


class _HeapOnlyEnvironment(Environment):
    """The heap-only kernel's ``schedule``, ``peek`` and ``run``, verbatim
    but for the drained ``run(until=t)``, which now ends at ``t`` as in
    the lanes kernel. Every event is a heap entry."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self._lanes = (_HeapLane(self, 0), _HeapLane(self, 1))

    def schedule(self, event: Event, priority: int = 1) -> None:
        """Queue ``event`` for processing now."""
        self._seq += 1
        heapq.heappush(self._queue, (self._now, priority, self._seq, event))

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[float | Event] = None) -> Any:
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(
                    f"until={stop_time} lies in the past (now={self._now})")
        queue = self._queue
        heappop = heapq.heappop
        while True:
            if stop_event is not None and stop_event.callbacks is None:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            if not queue:
                if stop_event is not None:
                    raise SimulationError(
                        "simulation ended before the awaited event triggered")
                if until is not None:  # the fix
                    self._now = stop_time
                return None
            if queue[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _, _, event = heappop(queue)
            self._now = when
            monitor = self._monitor
            if monitor is not None:
                monitor.on_event(when, len(queue))
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                if isinstance(event._value, BaseException):
                    raise event._value
                raise SimulationError(
                    f"event failed with non-exception {event._value!r}")


def _pop_order(env_cls, program, drives):
    """Run ``program`` (one script of ops per process) on a fresh
    ``env_cls``, driven by ``drives`` and then to the end.

    Returns the per-pop ``(now, queue depth, label)`` log (``label`` is
    the creation index of an event the program made, ``None`` for the
    kernel's own: process starts, interrupts), what the processes and
    the driver saw, and the event count.
    """
    env = env_cls()
    pops, seen, procs = [], [], []
    labels = itertools.count()

    class Monitor:
        def on_event(self, now, queue_depth):
            pops.append([now, queue_depth, None])

        def on_process(self, name):
            pass

    env.set_monitor(Monitor())

    def label(event):
        name = next(labels)

        def popped(_event):
            pops[-1][2] = name

        event.callbacks.insert(0, popped)
        return event

    def act(index, op):
        kind = op[0]
        if kind == "wait":
            return (yield label(env.timeout(op[1])))
        if kind == "step":
            return (yield label(Step(env, op[1], lambda _: seen.append(
                ("stepped", index, env.now, env.peek())))))
        if kind == "trigger":  # a timeout, then a step, then succeed/fail
            _, delay, priority, ok = op
            event = label(env.event())

            def fire(_step):
                if ok:
                    event.succeed("fired")
                else:
                    event.fail(_Boom())

            label(env.timeout(delay)).callbacks.append(
                lambda _: label(Step(env, priority, fire)))
            return (yield event)
        if kind == "schedule":
            event = label(env.event())
            event._ok, event._value = True, "scheduled"
            env.schedule(event, op[1])
            return (yield event)
        if kind == "spawn":
            def child(delay):
                yield label(env.timeout(delay))
                return "child"

            proc = label(env.process(child(op[1])))
            return (yield proc) if op[2] else "spawned"
        if kind == "race":
            racers = {"a": label(env.timeout(op[1])),
                      "b": label(env.timeout(op[2]))}
            values = yield AnyOf(env, list(racers.values()))
            return [name for name, event in racers.items() if event in values]
        target = procs[op[1] % len(procs)]  # interrupt a parked process
        if target.is_alive and target._target is not None:
            target.interrupt("poke")
            return "sent"
        return "skipped"

    def actor(index, script):
        for op in script:
            try:
                got = yield from act(index, op)
            except (Interrupt, _Boom) as exc:
                got = type(exc).__name__
            seen.append((op[0], index, env.now, got, env.peek()))
        return index

    for index, script in enumerate(program):
        procs.append(label(env.process(actor(index, script))))
    for drive in list(drives) + [("run",)]:
        try:
            if drive[0] == "until":
                got = env.run(until=env.now + drive[1])
            elif drive[0] == "join":
                got = env.run(until=procs[drive[1] % len(procs)])
            else:
                got = env.run()
        except (_Boom, SimulationError) as exc:
            got = type(exc).__name__
        seen.append((drive, got, env.now, env.peek()))
    return [tuple(pop) for pop in pops], seen, env.scheduled_events


#: Delays that tie (0.1 + 0.2 is not 0.3, 0.5 + 0.5 is 1.0), and one
#: that rounds to ``now`` once the clock is past zero.
_KERNEL_DELAYS = st.sampled_from([0.0, 1e-17, 0.1, 0.2, 0.3, 0.5, 1.0])
_PRIORITIES = st.sampled_from([0, 1])
_OPS = st.one_of(
    st.tuples(st.just("wait"), _KERNEL_DELAYS),
    st.tuples(st.just("step"), _PRIORITIES),
    st.tuples(st.just("trigger"), _KERNEL_DELAYS, _PRIORITIES, st.booleans()),
    st.tuples(st.just("schedule"), _PRIORITIES),
    st.tuples(st.just("spawn"), _KERNEL_DELAYS, st.booleans()),
    st.tuples(st.just("race"), _KERNEL_DELAYS, _KERNEL_DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
)
_DRIVES = st.lists(st.one_of(
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.15, 0.5, 1.0, 2.5])),
    st.tuples(st.just("join"), st.integers(0, 3))), max_size=4)


@settings(max_examples=300, deadline=None)
@given(program=st.lists(st.lists(_OPS, max_size=6), min_size=1, max_size=4),
       drives=_DRIVES)
def test_lanes_pop_what_the_heap_only_kernel_popped(program, drives):
    assert _pop_order(Environment, program, drives) \
        == _pop_order(_HeapOnlyEnvironment, program, drives)


def test_heap_entries_due_now_pop_between_the_lanes():
    """At t=1: two timeouts on the heap, and what the first one pushes
    at once: a step at each priority."""
    def order(env_cls):
        env = env_cls()
        popped = []

        def tag(event, name):
            event.callbacks.append(lambda _: popped.append(name))
            return event

        tag(env.timeout(1.0), "a").callbacks.append(lambda _: (
            tag(Step(env, 1), "x"), tag(Step(env, 0), "w")))
        tag(env.timeout(1.0), "b")
        env.run()
        return popped

    # The urgent lane beats b; b, pushed first, beats the normal lane.
    assert order(Environment) == order(_HeapOnlyEnvironment) \
        == ["a", "w", "b", "x"]
