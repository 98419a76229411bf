"""The SLO engine: objectives, sliding windows, burn-rate alerts.

Declarative service-level objectives evaluated on the *virtual* clock.
An :class:`SLOPolicy` names an objective (the fraction of events that
must be *good* — served within the latency bound and without error) and
a tuple of :class:`BurnRule` multi-window burn-rate alert rules in the
Google-SRE style: the **burn rate** is the ratio of the observed bad
fraction to the budgeted bad fraction ``1 - objective`` (burn 1.0 =
spending the error budget exactly at the sustainable rate), and a rule
fires only when *both* its long and short window burn at or above the
rule's factor — the long window proves the problem is real, the short
window proves it is still happening.

The :class:`SLOEngine` keys everything by *scope* — a free-form string
such as ``"shard:shard-3"`` or ``"tenant:interactive"`` plus the
implicit ``"fleet"`` roll-up — and keeps per-scope bucketed sliding
windows (O(1) amortized per recorded event, bounded memory) alongside
cumulative error-budget accounting. Evaluation happens at explicit
``evaluate(now)`` calls (the replay's control ticks), never implicitly,
so the engine does zero work between ticks beyond two integer
increments per event.

Everything here is plain Python on caller-provided timestamps: no clock
reads, no RNG, no simulation imports — recording an event can never
perturb the run it observes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class BurnRule:
    """One multi-window burn-rate alert rule.

    Fires when the error budget burns at ``>= factor`` times the
    sustainable rate over *both* windows. Short runs use much shorter
    windows than the SRE book's 1h/5m pairs; the structure is the same.
    """

    name: str
    long_window_s: float
    short_window_s: float
    factor: float

    def __post_init__(self) -> None:
        if self.long_window_s <= 0 or self.short_window_s <= 0:
            raise ValueError("burn-rule windows must be positive")
        if self.short_window_s > self.long_window_s:
            raise ValueError(
                f"short window {self.short_window_s} exceeds long window "
                f"{self.long_window_s}")
        if self.factor <= 0:
            raise ValueError("burn factor must be positive")


#: Default rules sized for replay-scale windows (hundreds of seconds):
#: a fast-burn pair that catches an acute outage within one control
#: interval, and a slow-burn pair that catches sustained degradation.
DEFAULT_BURN_RULES = (
    BurnRule(name="fast-burn", long_window_s=120.0, short_window_s=30.0,
             factor=4.0),
    BurnRule(name="slow-burn", long_window_s=300.0, short_window_s=60.0,
             factor=2.0),
)


@dataclass(frozen=True)
class SLOPolicy:
    """One declarative latency/error objective.

    ``objective`` is the good fraction required (0.99 = 1% error
    budget); an event is *good* iff it completed without error within
    ``latency_s``. Sheds, failures, and over-latency completions all
    spend the same budget — traffic turned away is traffic not served
    within its deadline.
    """

    name: str = "serving-latency"
    objective: float = 0.9
    latency_s: float = 2.0
    rules: tuple[BurnRule, ...] = DEFAULT_BURN_RULES

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}")
        if self.latency_s <= 0:
            raise ValueError("latency_s must be positive")
        if not self.rules:
            raise ValueError("need at least one burn rule")

    @property
    def budget_fraction(self) -> float:
        """The error budget: the bad fraction the objective tolerates."""
        return 1.0 - self.objective

    def is_good(self, latency_s: float, error: bool = False) -> bool:
        """Whether one served event meets the objective."""
        return not error and latency_s <= self.latency_s


@dataclass(frozen=True)
class Alert:
    """One burn-rate alert firing (a scope crossed a rule's factor)."""

    at: float
    scope: str
    rule: str
    short_burn: float
    long_burn: float
    budget_consumed: float

    def to_dict(self) -> dict:
        return {
            "at": round(self.at, 9),
            "scope": self.scope,
            "rule": self.rule,
            "short_burn": round(self.short_burn, 9),
            "long_burn": round(self.long_burn, 9),
            "budget_consumed": round(self.budget_consumed, 9),
        }


class SlidingWindow:
    """Bucketed (good, bad) counts over a trailing virtual-time window.

    Events land in fixed-width buckets; reading the window sums the
    buckets that overlap ``(now - window_s, now]``. Buckets older than
    the window are evicted on record, so memory is bounded by
    ``window_s / bucket_s`` regardless of event rate. Timestamps must be
    non-decreasing — the replay and serving layers both emit events in
    virtual-time order.
    """

    __slots__ = ("window_s", "bucket_s", "_buckets")

    def __init__(self, window_s: float, bucket_s: float) -> None:
        if window_s <= 0 or bucket_s <= 0:
            raise ValueError("window and bucket must be positive")
        self.window_s = window_s
        self.bucket_s = bucket_s
        #: deque of [bucket_start, good, bad], oldest first.
        self._buckets: deque[list] = deque()

    def record(self, now: float, good: bool, count: int = 1) -> None:
        start = (now // self.bucket_s) * self.bucket_s
        buckets = self._buckets
        if not buckets or buckets[-1][0] != start:
            buckets.append([start, 0, 0])
            horizon = now - self.window_s - self.bucket_s
            while buckets and buckets[0][0] < horizon:
                buckets.popleft()
        if good:
            buckets[-1][1] += count
        else:
            buckets[-1][2] += count

    def counts(self, now: float) -> tuple[int, int]:
        """(good, bad) over the trailing window ending at ``now``."""
        horizon = now - self.window_s
        good = bad = 0
        for start, g, b in self._buckets:
            if start + self.bucket_s > horizon and start <= now:
                good += g
                bad += b
        return good, bad

    def bad_fraction(self, now: float) -> float:
        good, bad = self.counts(now)
        total = good + bad
        return bad / total if total else 0.0


class _ScopeState:
    """Cumulative budget accounting plus the sliding windows of a scope."""

    __slots__ = ("good", "bad", "windows", "firing")

    def __init__(self, policy: SLOPolicy) -> None:
        self.good = 0
        self.bad = 0
        # One window per distinct length across all rules, shared.
        lengths = sorted({w for rule in policy.rules
                          for w in (rule.long_window_s,
                                    rule.short_window_s)})
        self.windows = {
            length: SlidingWindow(length, bucket_s=max(length / 12.0, 1.0))
            for length in lengths}
        #: Rules currently latched firing (re-arm when the long window
        #: drops back under the factor).
        self.firing: set[str] = set()

    def record(self, now: float, good: bool, count: int = 1) -> None:
        if good:
            self.good += count
        else:
            self.bad += count
        for window in self.windows.values():
            window.record(now, good, count)


class SLOEngine:
    """Evaluates one policy across many scopes on the virtual clock."""

    def __init__(self, policy: SLOPolicy) -> None:
        self.policy = policy
        self._scopes: dict[str, _ScopeState] = {}
        self.alerts: list[Alert] = []

    # -- recording ---------------------------------------------------------

    def record(self, now: float, scope: str, good: bool,
               count: int = 1) -> None:
        """Count ``count`` events (good or budget-spending) under ``scope``.

        ``count > 1`` is the bulk path for counter deltas (e.g. "this
        shard shed 1,200 requests since the last control tick") — one
        bucket increment instead of a Python-level loop.
        """
        if count <= 0:
            return
        state = self._scopes.get(scope)
        if state is None:
            state = self._scopes[scope] = _ScopeState(self.policy)
        state.record(now, good, count)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: float) -> list[Alert]:
        """Check every scope's burn rules; returns the *new* firings.

        A (scope, rule) pair latches once it fires and re-arms only
        after its long-window burn drops back below the factor, so a
        sustained outage produces one alert, not one per tick.
        """
        budget = self.policy.budget_fraction
        fired: list[Alert] = []
        for scope in sorted(self._scopes):
            state = self._scopes[scope]
            for rule in self.policy.rules:
                long_burn = state.windows[rule.long_window_s] \
                    .bad_fraction(now) / budget
                short_burn = state.windows[rule.short_window_s] \
                    .bad_fraction(now) / budget
                breaching = (long_burn >= rule.factor
                             and short_burn >= rule.factor)
                if breaching and rule.name not in state.firing:
                    state.firing.add(rule.name)
                    alert = Alert(
                        at=now, scope=scope, rule=rule.name,
                        short_burn=short_burn, long_burn=long_burn,
                        budget_consumed=self.budget_consumed(scope))
                    self.alerts.append(alert)
                    fired.append(alert)
                elif not breaching and long_burn < rule.factor:
                    state.firing.discard(rule.name)
        return fired

    # -- views -------------------------------------------------------------

    def scopes(self) -> list[str]:
        """Every scope that has recorded events, sorted."""
        return sorted(self._scopes)

    def budget_consumed(self, scope: str) -> float:
        """Fraction of the scope's cumulative error budget spent.

        1.0 means the objective is exactly violated over the scope's
        lifetime; above 1.0 the budget is overdrawn.
        """
        state = self._scopes.get(scope)
        if state is None:
            return 0.0
        total = state.good + state.bad
        if total == 0:
            return 0.0
        return (state.bad / total) / self.policy.budget_fraction

    def report(self, now: float) -> dict:
        """Canonical JSON-ready SLO report (stable keys, rounded)."""
        scopes = {}
        for scope in sorted(self._scopes):
            state = self._scopes[scope]
            total = state.good + state.bad
            scopes[scope] = {
                "total": total,
                "good": state.good,
                "bad": state.bad,
                "attainment": round(state.good / total, 9) if total else 1.0,
                "budget_consumed": round(self.budget_consumed(scope), 9),
                "firing": sorted(state.firing),
            }
        return {
            "schema": "repro.obs.slo/1",
            "policy": {
                "name": self.policy.name,
                "objective": self.policy.objective,
                "latency_s": self.policy.latency_s,
                "rules": [{"name": rule.name,
                           "long_window_s": rule.long_window_s,
                           "short_window_s": rule.short_window_s,
                           "factor": rule.factor}
                          for rule in self.policy.rules],
            },
            "as_of": round(now, 9),
            "scopes": scopes,
            "alerts": [alert.to_dict() for alert in self.alerts],
        }


@dataclass(frozen=True)
class _Event:
    """Internal: one (time, scope, good) tuple for offline evaluation."""

    t: float
    seq: int
    scope: str
    good: bool = field(compare=False)


def evaluate_offline(policy: SLOPolicy, events, window_end: float,
                     tick_s: float = 30.0) -> dict:
    """Feed unordered ``(t, scope, good)`` events through a fresh engine.

    The serving layer keeps per-tenant completion records rather than a
    merged timeline; this helper sorts them (ties broken by input
    order, so the result is deterministic), replays them through an
    :class:`SLOEngine` with periodic evaluation every ``tick_s``, and
    returns the final report. Pure function — same inputs, same bytes.
    """
    engine = SLOEngine(policy)
    ordered = sorted(
        (_Event(t=float(t), seq=seq, scope=scope, good=bool(good))
         for seq, (t, scope, good) in enumerate(events)),
        key=lambda e: (e.t, e.seq))
    next_tick = tick_s
    for event in ordered:
        while event.t >= next_tick:
            engine.evaluate(next_tick)
            next_tick += tick_s
        engine.record(event.t, event.scope, event.good)
    while next_tick <= window_end:
        engine.evaluate(next_tick)
        next_tick += tick_s
    engine.evaluate(window_end)
    return engine.report(window_end)
