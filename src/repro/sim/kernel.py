"""The simulation environment: virtual clock and event queue."""

from __future__ import annotations

import heapq
from typing import Any, Generator, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Process, Timeout

#: Default priority for ordinary events. Urgent events (process init,
#: interrupts) use priority 0 so they run before same-timestamp events.
NORMAL_PRIORITY = 1


class Environment:
    """Execution environment for a discrete-event simulation.

    The environment keeps the virtual clock (:attr:`now`, in seconds) and a
    priority queue of triggered events. Time only advances when :meth:`run`
    or :meth:`step` processes events; scheduling is O(log n).
    """

    __slots__ = ("_now", "_queue", "_seq", "_active_process", "_monitor")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        self._monitor: Optional[Any] = None

    def set_monitor(self, monitor: Optional[Any]) -> None:
        """Install a passive observer (``on_event(now, queue_depth)`` and
        ``on_process(name)``); it must never schedule events or touch the
        clock. The kernel stays import-free of any telemetry package —
        recorders attach themselves through this hook."""
        self._monitor = monitor

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def scheduled_events(self) -> int:
        """Total events scheduled so far (a deterministic work counter)."""
        return self._seq

    @property
    def active_process_generator(self):
        """Generator of the active process (used for self-interrupt checks)."""
        return self._active_process.generator if self._active_process else None

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: Optional[str] = None) -> Process:
        """Start a new process executing ``generator``."""
        if self._monitor is not None:
            self._monitor.on_process(name)
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling and execution ------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL_PRIORITY) -> None:
        """Queue ``event`` for processing ``delay`` seconds from now."""
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue is empty), a number
        (run until the clock reaches that time), or an :class:`Event` (run
        until that event is processed, returning its value).

        The queue and heap pop are bound to locals — event dispatch is
        the simulator's innermost loop, and the per-event overhead here
        is what every scenario pays.
        """
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
                # An unhandled failure: abort the simulation loudly
                # rather than silently dropping the exception.
                if isinstance(event._value, BaseException):
                    raise event._value
                raise SimulationError(
                    f"event failed with non-exception {event._value!r}")
