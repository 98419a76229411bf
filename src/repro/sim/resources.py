"""Shared resources for simulation processes.

:class:`Resource` is a counted resource with FIFO queueing, modelling
things like worker slots or connection pools.

Continuous quantities (byte budgets, tokens) are the token buckets of
:mod:`repro.network.shaper`.
"""

from __future__ import annotations

from collections import deque

from repro.sim.events import Event


class Request(Event):
    """Pending acquisition of one unit of a :class:`Resource`.

    Usable as a context manager so the unit is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
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
        self._queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of units currently granted."""
        return len(self._users)

    def request(self) -> Request:
        """Ask for one unit; waiters are served in request order."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return the unit held by ``request``.

        Releasing a request that was never granted cancels it instead.
        """
        if request in self._users:
            self._users.remove(request)
            self._grant_waiters()
        elif request in self._queue:
            self._queue.remove(request)

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            request = self._queue.popleft()
            self._users.add(request)
            request.succeed()
