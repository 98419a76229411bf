"""Warm-pool manager: scheduled keep-alive pings against the platform.

Coldstarts dominate tail latency for sparse tenants (Section 4.1's
startup analysis); providers answer with provisioned concurrency, users
answer with keep-alive pings. The manager holds a target number of
sandboxes warm per function by pinging on a fixed interval shorter than
the idle-reclamation lifetime, and accounts for what that insurance
costs via :class:`~repro.pricing.calculator.CostCalculator` — making the
ping-cost vs. coldstart-latency trade-off measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pricing.calculator import CostCalculator

#: Default ping interval: comfortably below the ~6-minute median idle
#: lifetime, so a pinged sandbox rarely expires between pings.
DEFAULT_INTERVAL_S = 240.0


@dataclass
class WarmPoolStats:
    """Outcome counters of one warm pool over one run."""

    pings: int = 0
    #: Pings that refreshed an already-warm sandbox.
    hits: int = 0
    #: Pings that had to create (coldstart) a sandbox.
    misses: int = 0
    #: Pings skipped for lack of account concurrency headroom.
    skipped: int = 0
    rounds: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of executed pings that found a warm sandbox."""
        executed = self.hits + self.misses
        return self.hits / executed if executed else 0.0

    @property
    def cold_start_rate(self) -> float:
        """Fraction of executed pings that paid a coldstart."""
        executed = self.hits + self.misses
        return self.misses / executed if executed else 0.0

    def absorb(self, outcome: dict) -> None:
        """Fold one :meth:`LambdaPlatform.keep_alive` outcome in."""
        self.hits += outcome["hits"]
        self.misses += outcome["misses"]
        self.skipped += outcome["skipped"]
        self.pings += outcome["hits"] + outcome["misses"]


class WarmPoolManager:
    """Keeps target sandbox counts warm for a set of functions."""

    def __init__(self, env, platform, targets: dict[str, int],
                 interval_s: float = DEFAULT_INTERVAL_S) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        for name, target in targets.items():
            if target <= 0:
                raise ValueError(f"target for {name!r} must be positive")
        self.env = env
        self.platform = platform
        self.targets = dict(targets)
        self.interval_s = interval_s
        self.stats = WarmPoolStats()

    def run(self, until: float):
        """Process: ping every function each interval until ``until``."""
        while self.env.now < until:
            for name, target in self.targets.items():
                outcome = yield from self.platform.keep_alive(name, target)
                self.stats.absorb(outcome)
            self.stats.rounds += 1
            remaining = until - self.env.now
            if remaining <= 0:
                break
            yield self.env.timeout(min(self.interval_s, remaining))

    def ping_cost_usd(self) -> float:
        """Dollars spent on keep-alive invocations so far."""
        calculator = CostCalculator()
        for record in self.platform.records:
            if record.response == "keep-alive":
                config = self.platform.function(record.function)
                calculator.add_function_invocation(config.memory_bytes,
                                                   record.duration)
        return calculator.cost.total
