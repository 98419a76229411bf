"""Supervised invocation: the one task-level recovery policy.

The query coordinator (fragments of a stage) and the futures invoker
(calls of a job) both run every attempt *supervised*: its error is
captured into the result, never raised into the kernel, and a
:class:`Supervisor` settles it. A win ends the task, and its siblings
still in flight become *zombies* that run and bill to completion. A
transient failure (``error.retryable``) retries after a jittered
exponential backoff until the task's attempt cap (hedges aside) or the
retry budget runs out; anything else gives up. With hedging on,
stragglers (:func:`hedge_candidates`) get one duplicate attempt each.

Only the policy lives here. Each caller keeps how it launches and bills
an attempt, when it scans for stragglers, its RNG stream, and how it
surfaces a give-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.telemetry import get_recorder

#: Per-invocation dispatch overhead on the invoking process (seconds).
INVOKE_DISPATCH_S = 0.003

#: Retries allowed per query (coordinator) and per futures executor.
QUERY_RETRY_BUDGET = 32
EXECUTOR_RETRY_BUDGET = 128

#: Backoff before retry ``n``: ``BACKOFF_BASE_S * 2^(n-1)``, capped at
#: ``BACKOFF_CAP_S``, then scaled by a uniform factor in
#: ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]``.
BACKOFF_BASE_S = 0.1
BACKOFF_CAP_S = 5.0
BACKOFF_JITTER = 0.5

#: A task is a straggler once ``STRAGGLER_QUORUM`` of its stage or job
#: has finished and it has run longer than both ``STRAGGLER_MIN_WAIT_S``
#: and ``STRAGGLER_FACTOR`` x the finished median.
STRAGGLER_FACTOR = 3.0
STRAGGLER_QUORUM = 0.5
STRAGGLER_MIN_WAIT_S = 0.5
#: Straggler-scan interval while a stage or job is in flight.
STRAGGLER_POLL_S = 0.25
#: Hedged duplicate attempts allowed per supervisor.
HEDGE_BUDGET = 4

#: Seed of the coordinator's per-query backoff-jitter stream.
JITTER_SEED = 0


@dataclass(frozen=True)
class RecoveryPolicy:
    """What a caller of the supervisor may set; the rest is constants."""

    #: Attempts launched per task, hedges aside (1 = no retries).
    max_attempts: int = 3
    #: Off by default: hedging reacts to natural timing variance too.
    hedge: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")


def backoff_delay(attempt: int, rng: np.random.Generator) -> float:
    """Jittered exponential backoff before retry number ``attempt``."""
    delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2.0 ** (attempt - 1))
    return delay * (1.0 + BACKOFF_JITTER * (2.0 * float(rng.random())
                                            - 1.0))


def hedge_candidates(elapsed_by_task: dict[int, float],
                     completed_durations: list[float], total: int,
                     now: float | None = None,
                     pipeline: str | None = None) -> list[int]:
    """The straggler rule: the running tasks that deserve a duplicate.

    The live-span analogue of :func:`repro.obs.profiler.stragglers`.
    With a recorder active and ``now`` given, a scan that names
    candidates is recorded as a ``hedge.candidates`` event.
    """
    needed = max(1, math.ceil(STRAGGLER_QUORUM * total))
    if len(completed_durations) < needed:
        return []
    median = float(np.median(completed_durations))
    threshold = max(STRAGGLER_MIN_WAIT_S, STRAGGLER_FACTOR * median)
    candidates = sorted(task for task, elapsed in elapsed_by_task.items()
                        if elapsed > threshold)
    if candidates and now is not None:
        recorder = get_recorder()
        if recorder is not None:
            recorder.event(
                now, "hedge.candidates", category="recovery",
                pipeline=pipeline, fragments=candidates,
                median_s=median, threshold_s=threshold,
                completed=len(completed_durations), total=total)
    return candidates


class Supervisor:
    """Settles the attempts of one query's (or one executor's) tasks."""

    def __init__(self, policy: RecoveryPolicy, rng: np.random.Generator,
                 retry_budget: int) -> None:
        self.policy = policy
        self.rng = rng
        #: Retries allowed across the supervisor's whole lifetime.
        self.retry_budget = retry_budget
        self.retries = 0
        self.failed_attempts = 0
        self.hedges = 0
        self.hedge_wins = 0
        #: Losing attempts still in flight: they run and bill to the end.
        self.zombies: list = []
        self.zombies_drained = 0

    @property
    def may_hedge(self) -> bool:
        """Whether hedging is on and its budget is not yet spent."""
        return self.policy.hedge and self.hedges < HEDGE_BUDGET

    def take_hedge(self) -> bool:
        """Spend one hedge from the budget; False when none is left."""
        if self.hedges >= HEDGE_BUDGET:
            return False
        self.hedges += 1
        return True

    def won(self, hedged: bool, siblings) -> None:
        """Settle a task's first success; ``siblings`` are still running."""
        if hedged:
            self.hedge_wins += 1
        self.zombies.extend(siblings)

    def retry_delay(self, error: BaseException,
                    attempts: int) -> float | None:
        """Settle a failure: the backoff before a retry, or None to give up.

        ``attempts`` counts the attempts the task launched, hedges aside.
        """
        self.failed_attempts += 1
        if not getattr(error, "retryable", False) \
                or attempts >= self.policy.max_attempts \
                or self.retries >= self.retry_budget:
            return None
        self.retries += 1
        return backoff_delay(attempts, self.rng)

    def drain(self):
        """Process: await every zombie; returns how many were drained.

        Zombies bill on completion, so drain before reading cost totals.
        """
        while self.zombies:
            zombie = self.zombies.pop(0)
            if not zombie.processed:
                yield zombie
            self.zombies_drained += 1
        return self.zombies_drained
