"""Job monitor: invocation-state tracking on the virtual clock.

One :class:`JobMonitor` observes one job (a ``map`` or ``map_reduce``
phase): it counts futures per lifecycle state and records every
transition with its virtual timestamp. It schedules no events, so
telemetry on vs. off stays byte-identical.
"""

from __future__ import annotations

from repro.futures.future import DONE_STATES, ERROR, PENDING
from repro.telemetry import get_recorder

#: Transition log entries kept verbatim; beyond this only counters grow.
TRANSITION_CAP = 4096


class JobMonitor:
    """Tracks the lifecycle of one job's futures on the virtual clock."""

    def __init__(self, env, job_id: str) -> None:
        self.env = env
        self.job_id = job_id
        self.total = 0
        self.counts: dict[str, int] = {
            "pending": 0, "running": 0, "success": 0, "error": 0}
        #: ``{"t", "call_id", "from", "to"}`` entries, capped.
        self.transitions: list[dict] = []
        self.dropped_transitions = 0
        #: Job span the executor parents all dispatches under; finished
        #: here when the last future reaches a terminal state.
        self.span = None
        self._telemetry = get_recorder()

    # -- future hooks ---------------------------------------------------------

    def on_create(self, future) -> None:
        """A future was created in the pending state."""
        self.total += 1
        self.counts[PENDING] += 1
        self._log(future, "", PENDING)

    def on_transition(self, future, previous: str, state: str) -> None:
        """A future moved from ``previous`` to ``state``."""
        self.counts[previous] -= 1
        self.counts[state] = self.counts.get(state, 0) + 1
        self._log(future, previous, state)
        if state in DONE_STATES:
            if self._telemetry is not None:
                self._telemetry.counter(
                    f"futures.calls.{state}").value += 1
                finished = future.finished_at \
                    if future.finished_at is not None else self.env.now
                self._telemetry.histogram(
                    "futures.call.latency_s").record(
                        finished - future.created_at)
                if state == ERROR:
                    self._telemetry.event(
                        self.env.now, "futures.call_failed",
                        category="futures", job=self.job_id,
                        call_id=future.call_id,
                        error=type(future.error).__name__)
            if self.done and self.span is not None:
                self.span.finish(self.env.now, calls=self.total,
                                 errors=self.counts[ERROR])
                self.span = None

    def _log(self, future, previous: str, state: str) -> None:
        if len(self.transitions) >= TRANSITION_CAP:
            self.dropped_transitions += 1
            return
        self.transitions.append({
            "t": round(self.env.now, 9), "call_id": future.call_id,
            "from": previous, "to": state})

    # -- views ----------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether every created future reached a terminal state."""
        done = self.counts["success"] + self.counts["error"]
        return self.total > 0 and done == self.total

    def summary(self) -> dict:
        """JSON-ready job summary (counts and transition log size)."""
        return {
            "job_id": self.job_id,
            "calls": self.total,
            "counts": dict(self.counts),
            "transitions": len(self.transitions),
            "dropped_transitions": self.dropped_transitions,
        }
