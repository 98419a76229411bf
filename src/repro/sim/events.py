"""Event primitives for the discrete-event simulation kernel.

Events follow a small state machine: *pending* (created, not yet triggered),
*triggered* (scheduled for processing at some timestamp), and *processed*
(callbacks have run). Processes are events themselves: a process event
triggers when its underlying generator returns (or fails).
"""

from __future__ import annotations

import heapq
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.errors import Interrupt, SimulationError

PENDING = object()
"""Unique sentinel marking an event value as not yet decided."""


class Event:
    """An event that may happen at some point in simulated time.

    Callbacks (``event.callbacks``) are invoked with the event as their only
    argument when the event is processed. An event carries a ``value`` that
    waiting processes receive, and an ``ok`` flag; a failed event re-raises
    its value (an exception) inside any process waiting on it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded; only meaningful once triggered."""
        if self._value is PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel does not abort."""
        self._defused = True

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"  # repro-lint: disable=DET004 debug repr only, never feeds artifacts


class Timeout(Event):
    """An event that triggers after a fixed delay of simulated time."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float,  # noqa: F821
                 value: Any = None) -> None:
        # Timeouts dominate the event mix, so construction is inlined:
        # attributes are set directly and the schedule heappush happens
        # here (priority 1 == kernel.NORMAL_PRIORITY), skipping the
        # Event.__init__ and Environment.schedule call frames.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._delay = delay
        self._ok = True
        self._value = value
        self._defused = False
        env._seq += 1
        heapq.heappush(env._queue, (env._now + delay, 1, env._seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {id(self):#x}>"  # repro-lint: disable=DET004 debug repr only, never feeds artifacts


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:  # noqa: F821
        # One per process, so inlined like Timeout: own heap entry, at
        # priority 0 (urgent) so it runs before same-timestamp events.
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        env._seq += 1
        heapq.heappush(env._queue, (env._now, 0, env._seq, self))


class Process(Event):
    """Wraps a generator so it can be executed as a simulation process.

    The process advances by sending the value of each yielded event back
    into the generator. The process event itself triggers with the
    generator's return value, or fails with an uncaught exception.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment",  # noqa: F821
                 generator: Generator[Event, Any, Any],
                 name: Optional[str] = None) -> None:
        if type(generator) is not GeneratorType and not (
                hasattr(generator, "send") and hasattr(generator, "throw")):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def generator(self) -> Generator[Event, Any, Any]:
        """The underlying generator (read-only; identity checks only)."""
        return self._generator

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for, if any."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: object = None) -> None:
        """Throw an :class:`Interrupt` into this process.

        The interrupt is delivered via an immediately scheduled event so
        that interrupting is safe from within any other process.
        """
        if not self.is_alive:
            raise SimulationError(f"{self} has terminated and cannot be interrupted")
        if self._generator is self.env.active_process_generator:
            raise SimulationError("a process cannot interrupt itself")
        # Unhook from whatever the process was waiting on, so the stale
        # target cannot resume the process again after the interrupt.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks = [self._resume]
        self.env.schedule(event, priority=0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``.

        A failure is stored so that it frees by reference count: this
        frame's entry is dropped from its traceback, since the frame's
        ``self`` would close ``process -> exception -> traceback ->
        frame -> process``, a cycle only the collector can free. The
        generator's own frames stay, so an unhandled failure still shows
        where it was raised. (No local may hold the traceback either: it
        would re-create the cycle through this frame.)
        """
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._terminate(True, stop.value)
                break
            except BaseException as exc:
                exc.__traceback__ = exc.__traceback__.tb_next
                self._terminate(False, exc)
                # From CPython 3.12 the failed generator's frame, which the
                # traceback keeps, keeps this frame too (as its f_back):
                # leave no local in it that leads back to the failure.
                self = event = next_target = None
                break
            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}")
                event = Event(env)
                event._ok = False
                event._value = exc
                event._defused = True
                continue
            if next_target.callbacks is not None:
                # The target has not been processed yet: park this process.
                next_target.callbacks.append(self._resume)
                self._target = next_target
                break
            # The target was already processed; feed its value immediately.
            event = next_target
        env._active_process = None

    def _terminate(self, ok: bool, value: Any) -> None:
        self._target = None
        self._ok = ok
        self._value = value
        self.env.schedule(self)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"  # repro-lint: disable=DET004 debug repr only, never feeds artifacts


class ConditionValue(dict):
    """Mapping of events to their values for condition events."""


class _Condition(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf` composite events.

    Membership is tracked with a pending counter rather than a scan:
    ``_pending`` counts members not yet processed, so each member's
    completion is O(1) instead of O(members) — the difference between
    O(n) and O(n²) for wide fan-out joins (straggler hedging creates an
    :class:`AnyOf` per chunk read).
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment",  # noqa: F821
                 events: Iterable[Event]) -> None:
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._events = events = list(events)
        pending = 0
        for event in events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
            if event.callbacks is not None:
                pending += 1
        self._pending = pending
        # Hook the pending members before checking the processed ones: a
        # condition decided right here unhooks its timeouts in _check.
        if pending:
            on_member = self._on_member
            for event in events:
                if event.callbacks is not None:
                    event.callbacks.append(on_member)
        if pending < len(events):
            for event in events:
                if event.callbacks is None:
                    self._check(event)
        elif not events:
            self.succeed(ConditionValue())

    def _collect_values(self) -> ConditionValue:
        values = ConditionValue()
        for event in self._events:
            if event.callbacks is None and event._ok:
                values[event] = event._value
        return values

    def _on_member(self, event: Event) -> None:
        """Member completion callback: count it down, then re-evaluate."""
        self._pending -= 1
        self._check(event)

    def _check(self, event: Event) -> None:
        if not event._ok:
            # The condition absorbs member failures — including ones that
            # arrive after the condition already triggered (e.g. a second
            # concurrent process failing after the first one did).
            event._defused = True
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event._value)
        elif self._satisfied():
            self.succeed(self._collect_values())
        else:
            return
        # Decided: let go of pending timeouts. A race's loser is usually a
        # deadline that sits in the heap long after the winner finished,
        # and through this hook it would keep the condition, the winner
        # and everything they hold alive until it pops. A timeout cannot
        # fail, so there is no late failure to absorb; it still pops at
        # its time and anything else waiting on it still resumes. Other
        # pending members stay hooked for the failure they may yet have.
        on_member = self._on_member
        for member in self._events:
            if type(member) is Timeout and member.callbacks is not None:
                member.callbacks.remove(on_member)

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Event that triggers once all given events have triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._pending == 0


class AnyOf(_Condition):
    """Event that triggers as soon as any one of the given events does."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._pending < len(self._events)
