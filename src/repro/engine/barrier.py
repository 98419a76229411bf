"""Synchronization barriers for isolating query subflows.

Section 3.2: "the engine supports the injection of synchronization
barriers into its execution ... implemented as an extra operator that
polls a shared queue for a barrier condition." The simulation equivalent
is an event-based rendezvous: the last arriving fragment releases all
waiters, so e.g. all shuffle reads start at the same instant and the
shuffle subflow can be timed in isolation (Figure 15).
"""

from __future__ import annotations

from repro.sim import Environment, Event


class Barrier:
    """An N-party rendezvous point, one party per fragment index."""

    def __init__(self, env: Environment, parties: int) -> None:
        if parties <= 0:
            raise ValueError(f"parties must be positive, got {parties}")
        self.env = env
        self.parties = parties
        self._arrived: set[int] = set()
        self._release: Event = env.event()

    def arrive(self, fragment: int) -> Event:
        """Event that triggers once every fragment has arrived.

        Usage inside a process: ``yield barrier.arrive(fragment)``.
        Arrivals count distinct fragments ``0 .. parties - 1``, so the
        re-executed attempts of one fragment (a retry after a crash
        past the barrier, a hedged duplicate) stand for that fragment
        only: the rendezvous never releases before every fragment got
        there. A late arrival after release returns the
        already-triggered event.
        """
        if not 0 <= fragment < self.parties:
            raise ValueError(
                f"barrier overrun: fragment {fragment} of "
                f"{self.parties} parties")
        if not self._release.triggered:
            self._arrived.add(fragment)
            if len(self._arrived) == self.parties:
                self._release.succeed(self.env.now)
        return self._release


class BarrierRegistry:
    """Per-query barrier bookkeeping keyed by (query, pipeline)."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._barriers: dict[tuple[str, str], Barrier] = {}

    def get(self, query_id: str, pipeline_id: str, parties: int) -> Barrier:
        """The barrier for a pipeline, created on first access."""
        key = (query_id, pipeline_id)
        if key not in self._barriers:
            self._barriers[key] = Barrier(self.env, parties)
        barrier = self._barriers[key]
        if barrier.parties != parties:
            raise ValueError(
                f"barrier {key} created for {barrier.parties} parties, "
                f"requested {parties}")
        return barrier

    def clear(self, query_id: str) -> None:
        """Drop all barriers of a finished query."""
        self._barriers = {key: barrier
                          for key, barrier in self._barriers.items()
                          if key[0] != query_id}
