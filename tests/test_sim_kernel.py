"""Unit tests for the discrete-event simulation kernel."""

import traceback

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


def test_timeout_value_passthrough():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "payload"


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
    env = Environment(initial_time=10.0)
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
        t1 = env.timeout(1.0, value="one")
        t2 = env.timeout(4.0, value="four")
        values = yield AllOf(env, [t1, t2])
        return (sorted(values.values()), env.now)

    p = env.process(proc(env))
    env.run()
    assert p.value == (["four", "one"], 4.0)


def test_any_of_triggers_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(10.0, value="slow")
        values = yield AnyOf(env, [t1, t2])
        return (list(values.values()), env.now)

    p = env.process(proc(env))
    env.run()
    assert p.value == (["fast"], 1.0)


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

    deadline = env.timeout(30.0, value="tick")
    env.process(racer(env, deadline))
    env.process(latecomer(env, deadline))
    env.run()
    # The race was decided by the process: nothing hangs off the deadline
    # until the latecomer parks on it, and it still pops at its time.
    assert log == [("race", 1.0, []), ("latecomer", 30.0, "tick")]
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
