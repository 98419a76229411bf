"""Lambda concurrency scaling: burst pool plus linear ramp.

Documented behaviour [37]: an account can start up to 3,000 function
instances in an initial burst (region-dependent), after which Lambda adds
tenant slots at 500 per minute of sustained load, up to the account's
concurrency quota.
"""

from __future__ import annotations

from typing import Optional

#: Initial concurrency burst; the model uses one value in every region [37].
BURST_CONCURRENCY = 3_000
#: Additional concurrency granted per minute of sustained load [37].
SCALE_RATE_PER_MINUTE = 500.0


class ConcurrencyScaler:
    """Tracks how many concurrent environments the account may run.

    The allowance starts at the burst limit and, while demand
    exceeds supply, grows linearly at 500/min toward the account quota.
    When load subsides below the burst limit, the ramp resets.
    """

    def __init__(self, burst_limit: int = BURST_CONCURRENCY,
                 account_quota: int = 1_000) -> None:
        if burst_limit <= 0 or account_quota <= 0:
            raise ValueError("limits must be positive")
        self.burst_limit = burst_limit
        self.account_quota = account_quota
        self._ramp_started_at: Optional[float] = None

    def allowance(self, now: float) -> int:
        """Concurrent environments permitted at time ``now``."""
        base = min(self.burst_limit, self.account_quota)
        if self._ramp_started_at is None:
            return base
        ramped = (base + SCALE_RATE_PER_MINUTE / 60.0
                  * (now - self._ramp_started_at))
        return int(min(ramped, self.account_quota))

    def note_demand(self, concurrent: int, now: float) -> None:
        """Report current demand so the ramp can start or reset."""
        if concurrent >= min(self.burst_limit, self.account_quota):
            if self._ramp_started_at is None:
                self._ramp_started_at = now
        else:
            self._ramp_started_at = None

    def admit(self, concurrent: int, now: float) -> bool:
        """Whether one more environment may start given current usage."""
        self.note_demand(concurrent, now)
        return concurrent < self.allowance(now)
