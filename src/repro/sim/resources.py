"""Shared resources for simulation processes.

Two classic resource kinds are provided:

* :class:`Resource` — a counted resource with FIFO (or priority) queueing,
  modelling things like worker slots or connection pools.
* :class:`Store` — a FIFO buffer of discrete items (e.g. a message queue).

Continuous quantities (byte budgets, tokens) are the token buckets of
:mod:`repro.network.shaper`.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.sim.events import Event


class Request(Event):
    """Pending acquisition of one unit of a :class:`Resource`.

    Usable as a context manager so the unit is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)


class Resource:
    """A resource with integral capacity and a wait queue.

    ``request()`` returns an event that triggers once a unit is granted;
    ``release(request)`` hands the unit back and wakes the next waiter.
    """

    def __init__(self, env, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._users: set[Request] = set()
        self._queue: list[tuple[int, int, Request]] = []
        self._seq = 0

    @property
    def capacity(self) -> int:
        """Total number of units this resource can grant concurrently."""
        return self._capacity

    @property
    def count(self) -> int:
        """Number of units currently granted."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Ask for one unit; lower ``priority`` values are served first."""
        return Request(self, priority=priority)

    def release(self, request: Request) -> None:
        """Return the unit held by ``request``.

        Releasing a request that was never granted cancels it instead.
        """
        if request in self._users:
            self._users.remove(request)
            self._grant_waiters()
        else:
            self._queue = [entry for entry in self._queue if entry[2] is not request]
            heapq.heapify(self._queue)

    def _enqueue(self, request: Request) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (request.priority, self._seq, request))
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            _, _, request = heapq.heappop(self._queue)
            self._users.add(request)
            request.succeed()


class Store:
    """A FIFO buffer of discrete items with blocking ``get``/``put``."""

    def __init__(self, env, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._items: list[Any] = []
        self._getters: list[Event] = []
        self._putters: list[tuple[Event, Any]] = []

    @property
    def items(self) -> list:
        """Snapshot of buffered items (oldest first)."""
        return list(self._items)

    @property
    def capacity(self) -> float:
        """Maximum number of buffered items."""
        return self._capacity

    def put(self, item: Any) -> Event:
        """Event that triggers once ``item`` has been buffered."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._settle()
        return event

    def get(self) -> Event:
        """Event that triggers with the oldest buffered item."""
        event = Event(self.env)
        self._getters.append(event)
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and len(self._items) < self._capacity:
                event, item = self._putters.pop(0)
                self._items.append(item)
                event.succeed(item)
                progressed = True
            if self._getters and self._items:
                event = self._getters.pop(0)
                item = self._items.pop(0)
                event.succeed(item)
                progressed = True

