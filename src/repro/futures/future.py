"""Simulated response futures for the Lithops-style programming API.

A :class:`ResponseFuture` is the handle a :class:`FunctionExecutor`
returns for every asynchronous invocation. It moves through a small
state machine on the *virtual* clock — ``pending`` (submitted, queued in
the invoker), ``running`` (dispatched to the platform), then ``success``
or ``error`` — and accumulates one :class:`AttemptRecord` per platform
invocation launched on its behalf (primary, retries, and speculative
duplicates), so per-future cost always reflects everything that was
actually billed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.faas.function import InvocationRecord
from repro.pricing.catalog import LAMBDA_PRICING

#: Future lifecycle states, in order.
PENDING = "pending"
RUNNING = "running"
SUCCESS = "success"
ERROR = "error"

#: Terminal states.
DONE_STATES = (SUCCESS, ERROR)


@dataclass(frozen=True)
class AttemptRecord:
    """Billing and outcome data of one platform invocation of a future."""

    attempt: int
    hedged: bool
    requested_at: float
    started_at: float
    finished_at: float
    cold: bool
    ok: bool
    error_type: Optional[str]
    cost_usd: float

    @property
    def duration(self) -> float:
        """Billed handler duration of this attempt."""
        return self.finished_at - self.started_at


def attempt_cost_usd(record: InvocationRecord, memory_bytes: float,
                     ephemeral_bytes: float = 0.0) -> float:
    """Pricing-catalog cost of one invocation record.

    Uses the exact same formula the experiment cost calculator applies,
    so summing per-future costs reproduces the catalog total.
    """
    return LAMBDA_PRICING.invocation_cost(
        memory_bytes, record.duration, ephemeral_bytes)


class ResponseFuture:
    """Handle for one asynchronous function call in the simulation.

    Futures are created by :class:`~repro.futures.executor.
    FunctionExecutor` and driven by its invoker; user code only reads
    them (``state``, :meth:`result`, ``cost_usd``) and waits on them via
    ``executor.wait`` / ``executor.get_result``.
    """

    def __init__(self, env, job_id: str, call_id: str, function: str,
                 data: Any, monitor=None) -> None:
        self.env = env
        self.job_id = job_id
        self.call_id = call_id
        self.function = function
        #: The item this call maps over (rewritten by the reduce driver
        #: once the map phase has produced the reducer's input).
        self.data = data
        self.state = PENDING
        self.created_at = env.now
        self.dispatched_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: One entry per platform invocation launched for this call.
        self.attempts: list[AttemptRecord] = []
        #: Whether a speculative duplicate was launched.
        self.hedged = False
        #: Event triggered exactly once, on the pending -> done edge.
        self.done_event = env.event()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._monitor = monitor
        #: Set by the speculator to request a duplicate attempt; the
        #: invoker's drive loop observes it via ``_wake``.
        self._spec_requested = False
        #: Rebuilt by the drive loop each wait round so the speculator
        #: can interrupt a wait without touching attempt processes.
        self._wake = None
        if monitor is not None:
            monitor.on_create(self)

    # -- state accessors ------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the future reached a terminal state."""
        return self.state in DONE_STATES

    @property
    def success(self) -> bool:
        """Whether the future finished without an error."""
        return self.state == SUCCESS

    @property
    def error(self) -> Optional[BaseException]:
        """The terminal error, if the future failed."""
        return self._error

    def result(self, throw_except: bool = True) -> Any:
        """The call's return value.

        Raises ``RuntimeError`` while the future is not done (wait on it
        first — the simulation cannot block outside a process). With
        ``throw_except`` (the default) a failed future re-raises its
        error; otherwise ``None`` is returned.
        """
        if not self.done:
            raise RuntimeError(
                f"future {self.call_id} is {self.state}; wait() on it "
                f"before reading its result")
        if self.state == ERROR:
            if throw_except:
                raise self._error
            return None
        return self._result

    # -- accounting -----------------------------------------------------------

    @property
    def cost_usd(self) -> float:
        """Pricing-catalog compute cost of every attempt billed so far."""
        return sum(a.cost_usd for a in self.attempts)

    @property
    def cost_cents(self) -> float:
        """Compute cost in cents (the paper reports query costs in ¢)."""
        return self.cost_usd * 100.0

    def status(self) -> dict:
        """JSON-ready snapshot of this future's state and accounting."""
        return {
            "call_id": self.call_id,
            "job_id": self.job_id,
            "state": self.state,
            "created_at": round(self.created_at, 9),
            "dispatched_at": (round(self.dispatched_at, 9)
                              if self.dispatched_at is not None else None),
            "finished_at": (round(self.finished_at, 9)
                            if self.finished_at is not None else None),
            "attempts": len(self.attempts),
            "hedged": self.hedged,
            "error_type": (type(self._error).__name__
                           if self._error is not None else None),
            "cost_usd": round(self.cost_usd, 12),
        }

    # -- transitions (invoker-only) -------------------------------------------

    def mark_running(self, now: float) -> None:
        """Invoker hook: the call was dispatched to the platform."""
        self.dispatched_at = now
        self._transition(RUNNING)

    def resolve(self, value: Any) -> None:
        """Invoker hook: an attempt returned successfully."""
        self._result = value
        self.finished_at = self.env.now
        self._transition(SUCCESS)
        self.done_event.succeed()

    def reject(self, error: BaseException) -> None:
        """Invoker hook: the call failed terminally."""
        self._error = error
        self.finished_at = self.env.now
        self._transition(ERROR)
        self.done_event.succeed()

    def _transition(self, state: str) -> None:
        previous = self.state
        self.state = state
        if self._monitor is not None:
            self._monitor.on_transition(self, previous, state)

    def __repr__(self) -> str:
        return f"<ResponseFuture {self.call_id} {self.state}>"
