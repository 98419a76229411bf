"""Token-bucket traffic shapers.

A shaper limits the aggregate rate of all flows crossing one direction of
an endpoint. Two refill disciplines are supported:

* ``continuous`` — tokens accrue at ``refill_rate`` up to ``capacity``
  (EC2-style). While tokens remain, traffic may drain at ``burst_rate``;
  once the bucket is empty, traffic proceeds at ``refill_rate``.
* ``quantized`` — tokens arrive in discrete ``quantum``-sized grants every
  ``grant_interval`` seconds (Lambda-style). Once the bucket is empty the
  flow stalls until the next grant, producing the characteristic spiky
  baseline of Figure 5.

Additionally, a shaper can hold a *one-off budget* that is spent before the
rechargeable bucket and never comes back (the non-rechargeable ~150 MiB the
paper finds on Lambda), and an *idle refill level* the bucket snaps back to
when the endpoint stops sending (the "refills halfway" behaviour).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import units
from repro.telemetry import get_recorder

#: Minimum virtual-time spacing between telemetry samples of a shaper's
#: bucket level / allowed rate. The fabric can advance a shaper many
#: times per grant interval; 2 ms resolves the 100 ms grant sawtooth of
#: Figure 5 while keeping series bounded.
_SAMPLE_MIN_DT = 0.002


#: Bucket levels below this many bytes are clamped to zero; float residue
#: otherwise produces asymptotic micro-wakeups in the fabric.
_EPSILON_BYTES = 1e-3

#: Tolerance when comparing simulated timestamps (seconds).
_TIME_TOLERANCE = 1e-9

#: Minimum idle duration before the "refill halfway" behaviour applies.
#: Back-to-back requests with millisecond gaps do not count as the
#: function "stopping to utilize the network" (Section 4.2.1); the
#: paper's refill observation used a 3-second break.
IDLE_REFILL_MIN_S = 1.0


@dataclass
class ShaperState:
    """Snapshot of a shaper's bucket for inspection and testing."""

    level: float
    one_off_remaining: float
    mode: str


class TokenBucketShaper:
    """Aggregate token-bucket rate limiter for one traffic direction.

    The shaper is driven by the fabric, which walks all its active
    shapers at once with :func:`advance_shapers` (consume tokens for an
    elapsed interval, report ceilings that moved) and
    :func:`earliest_change` (when to recompute rates next).
    :meth:`advance`, :meth:`allowed_rate` and :meth:`next_change` are the
    same sweeps applied to this one shaper.
    """

    def __init__(self, capacity: float, burst_rate: float,
                 refill_rate: float, mode: str = "continuous",
                 one_off_budget: float = 0.0,
                 idle_refill_level: float | None = None,
                 grant_interval: float = 0.1,
                 initial_level: float | None = None,
                 name: str | None = None) -> None:
        if mode not in ("continuous", "quantized"):
            raise ValueError(f"unknown shaper mode {mode!r}")
        if capacity < 0 or burst_rate <= 0 or refill_rate < 0:
            raise ValueError("capacity/burst/refill must be non-negative "
                             "(burst strictly positive)")
        self.capacity = float(capacity)
        self.burst_rate = float(burst_rate)
        self.refill_rate = float(refill_rate)
        self.mode = mode
        self.one_off_budget = float(one_off_budget)
        self.one_off_remaining = float(one_off_budget)
        self.idle_refill_level = (float(idle_refill_level)
                                  if idle_refill_level is not None else None)
        self.grant_interval = float(grant_interval)
        self._level = float(initial_level if initial_level is not None else capacity)
        #: Absolute time of the next quantized grant (stateful, to avoid
        #: float-grid mismatches between scheduling and accounting).
        self._next_grant_at = self.grant_interval
        #: When the shaper last went idle (None while active).
        self._idle_since: float | None = None
        # Telemetry is captured at construction: recording() must wrap
        # simulation setup. Telemetry off costs one None-check here.
        self._telemetry = recorder = get_recorder()
        if recorder is not None:
            label = recorder.unique_name(f"shaper.{name or mode}")
            self.telemetry_name = label
            self._level_series = recorder.timeseries(
                f"{label}.level", min_dt=_SAMPLE_MIN_DT)
            self._rate_series = recorder.timeseries(
                f"{label}.allowed_rate", min_dt=_SAMPLE_MIN_DT)
            self._throttle_counter = recorder.counter(
                "shaper.throttle_transitions")
            self._was_throttled = self.budget <= 0
        else:
            self.telemetry_name = name or mode

    # -- inspection ---------------------------------------------------------

    @property
    def level(self) -> float:
        """Tokens currently in the rechargeable bucket (bytes)."""
        return self._level

    @property
    def budget(self) -> float:
        """Total immediately spendable bytes (one-off + bucket)."""
        return self.one_off_remaining + self._level

    def state(self) -> ShaperState:
        """Return a snapshot for assertions in tests."""
        return ShaperState(level=self._level,
                           one_off_remaining=self.one_off_remaining,
                           mode=self.mode)

    # -- fabric interface (each a sweep over a one-element load) -------------

    def allowed_rate(self) -> float:
        """Aggregate rate ceiling right now (bytes/second)."""
        (_, ceiling), = advance_shapers((_Load(self, 0.0),), 0.0, 0.0)
        return ceiling

    def advance(self, now: float, elapsed: float, consumed_rate: float) -> None:
        """Account for ``elapsed`` seconds of consumption at ``consumed_rate``.

        The fabric guarantees ``consumed_rate <= allowed_rate()`` held for
        the whole interval (it schedules a recompute at every state change).
        """
        if elapsed < 0:
            raise ValueError(f"negative elapsed time {elapsed}")
        advance_shapers((_Load(self, consumed_rate),), now, elapsed)

    def next_change(self, now: float, consumed_rate: float) -> float:
        """Absolute time at which :meth:`allowed_rate` next changes.

        Returns ``inf`` if the ceiling is stable under the given
        consumption rate.
        """
        return earliest_change((_Load(self, consumed_rate),), now)

    def _record(self, now: float, ceiling: float) -> None:
        """Sample the bucket after an advance (recorder-on path only)."""
        self._level_series.sample(now, self._level)
        self._rate_series.sample(now, ceiling)
        throttled = self.one_off_remaining + self._level <= 0
        if throttled != self._was_throttled:
            self._was_throttled = throttled
            self._throttle_counter.value += 1
            self._telemetry.event(
                now, "shaper.throttled" if throttled
                else "shaper.recovered",
                category="network", shaper=self.telemetry_name)

    def degrade(self, factor: float) -> None:
        """Scale this shaper's rates down by ``factor`` (0 < factor <= 1).

        Models a sandbox that drew a slow NIC (the placement-dependent
        bandwidth variance of Section 4.2): both the burst and refill
        rates shrink, so the endpoint is a persistent straggler for its
        whole lifetime. Used by the chaos subsystem's ``network_degrade``
        fault.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        self.burst_rate *= factor
        self.refill_rate *= factor

    def on_idle(self, now: float = 0.0) -> None:
        """The last flow through this shaper stopped at time ``now``."""
        if self.idle_refill_level is not None and self._idle_since is None:
            self._idle_since = now

    def on_activate(self, now: float = 0.0) -> None:
        """A flow starts using the shaper again.

        If the shaper sat idle for at least :data:`IDLE_REFILL_MIN_S`,
        the bucket snaps up to its idle refill level ("refills halfway to
        the initial capacity", Section 4.2.1).
        """
        if (self.idle_refill_level is not None
                and self._idle_since is not None
                and now - self._idle_since >= IDLE_REFILL_MIN_S):
            self._level = max(self._level, self.idle_refill_level)
        self._idle_since = None


class _Load:
    """One shaper under one consumption rate: what the sweeps walk.

    The fabric's registry entries carry the same three attributes; this
    is the one-element stand-in behind the scalar methods. It was planned
    against no ceiling, so a sweep always reports its current one.
    """

    __slots__ = ("constraint", "consumption", "capacity")

    def __init__(self, constraint: TokenBucketShaper,
                 consumption: float) -> None:
        self.constraint = constraint
        self.consumption = consumption
        self.capacity = None


def advance_shapers(loads, now: float, elapsed: float) -> list:
    """Advance every load's bucket to ``now``; report the ceilings that moved.

    Each load names a shaper (``constraint``), the aggregate rate its
    flows drew for the last ``elapsed`` seconds (``consumption``) and the
    ceiling its consumer last planned with (``capacity``). Returns
    ``(load, ceiling)`` for every load whose ceiling now differs from
    that plan; the loads themselves are not modified. With
    ``elapsed == 0`` no bucket moves and only the ceilings are compared.

    The loop makes no call per load on the recorder-off path: ``min`` and
    ``max`` are written as the conditionals that pick the same operand.
    """
    horizon = now + _TIME_TOLERANCE
    moved = []
    for load in loads:
        shaper = load.constraint
        level = shaper._level
        one_off = shaper.one_off_remaining
        quantized = shaper.mode == "quantized"
        if elapsed > 0:
            consumed = load.consumption * elapsed
            # One-off budget is spent first and never refills.
            from_one_off = one_off if one_off < consumed else consumed
            one_off -= from_one_off
            if quantized:
                # Stateful grant schedule: every grant due by ``now``
                # (with tolerance for float drift) arrives exactly once.
                grants = 0.0
                if shaper.refill_rate > 0 and not shaper._next_grant_at > horizon:
                    interval = shaper.grant_interval
                    count = 1 + math.floor(
                        (horizon - shaper._next_grant_at) / interval)
                    shaper._next_grant_at += count * interval
                    grants = count * (shaper.refill_rate * interval)
                level = level + grants - (consumed - from_one_off)
            else:
                level = level - ((consumed - from_one_off)
                                 - shaper.refill_rate * elapsed)
            if not level < shaper.capacity:
                level = shaper.capacity
            # Clamp float residue (and any overdraft) so exhaustion is
            # reached exactly, not asymptotically — which would flood the
            # fabric with micro-wakeups.
            if level < _EPSILON_BYTES:
                level = 0.0
            if one_off < _EPSILON_BYTES:
                one_off = 0.0
            shaper._level = level
            shaper.one_off_remaining = one_off
        if one_off + level > 0:
            ceiling = shaper.burst_rate
        elif quantized:
            ceiling = 0.0  # stalled until the next grant
        elif shaper.burst_rate < shaper.refill_rate:
            ceiling = shaper.burst_rate
        else:
            ceiling = shaper.refill_rate
        if shaper._telemetry is not None and elapsed > 0:
            shaper._record(now, ceiling)
        if ceiling != load.capacity:
            moved.append((load, ceiling))
    return moved


def earliest_change(loads, now: float, earliest: float = math.inf) -> float:
    """Earliest time any load's ceiling next changes, capped by ``earliest``.

    A ceiling changes when the spendable budget runs out under the
    load's consumption, or — quantized shapers — at the next grant
    strictly after ``now``. Stable loads contribute ``inf``.
    """
    horizon = now + _TIME_TOLERANCE
    for load in loads:
        shaper = load.constraint
        budget = shaper.one_off_remaining + shaper._level
        if shaper.mode == "quantized":
            # Grants are discrete, so the bucket drains at the full rate.
            net_drain = load.consumption
            if shaper.refill_rate > 0:
                due = shaper._next_grant_at
                while due <= horizon:
                    due += shaper.grant_interval
                if due < earliest:
                    earliest = due
        else:
            net_drain = load.consumption - shaper.refill_rate
        if budget > 0 and net_drain > 0:
            exhaust = now + budget / net_drain
            if exhaust < earliest:
                earliest = exhaust
    return earliest


def stalled_until(load) -> float | None:
    """The next grant of a stalled quantized bucket, else ``None``.

    A quantized bucket with a refill, nothing left to spend and no
    consumption has ceiling 0, and :func:`advance_shapers` leaves it
    exactly as it is until its grant falls due (``level + 0.0 - (0.0 -
    0.0)`` and the same clamps). While the grant lies past the time
    tolerance, the grant time is also its whole :func:`earliest_change`
    term. Recorder-on shapers sample every advance, so they never stall
    in this sense.
    """
    shaper = load.constraint
    if (shaper.mode == "quantized" and shaper.refill_rate > 0
            and shaper.one_off_remaining + shaper._level <= 0
            and load.consumption == 0.0 and shaper._telemetry is None):
        return shaper._next_grant_at
    return None


#: Calibration constants from Section 4.2 of the paper. The inbound and
#: outbound buckets are maintained independently; each starts with ~300 MiB
#: of spendable budget (150 MiB one-off + 150 MiB rechargeable), drains at
#: burst rate, and once empty receives 7.5 MiB grants every 100 ms.
LAMBDA_BURST_RATE_IN = 1.2 * units.GiB
LAMBDA_BURST_RATE_OUT = 0.8 * units.GiB
LAMBDA_ONE_OFF_BUDGET = 150 * units.MiB
LAMBDA_BUCKET_CAPACITY = 150 * units.MiB
LAMBDA_BASELINE_RATE = 75 * units.MiB
LAMBDA_GRANT_INTERVAL = 0.1


def lambda_shaper(direction: str = "in",
                  name: str | None = None) -> TokenBucketShaper:
    """Shaper calibrated to the Lambda network model of Section 4.2."""
    if direction not in ("in", "out"):
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")
    burst = LAMBDA_BURST_RATE_IN if direction == "in" else LAMBDA_BURST_RATE_OUT
    return TokenBucketShaper(
        capacity=LAMBDA_BUCKET_CAPACITY,
        burst_rate=burst,
        refill_rate=LAMBDA_BASELINE_RATE,
        mode="quantized",
        one_off_budget=LAMBDA_ONE_OFF_BUDGET,
        idle_refill_level=LAMBDA_BUCKET_CAPACITY,
        grant_interval=LAMBDA_GRANT_INTERVAL,
        initial_level=LAMBDA_BUCKET_CAPACITY,
        name=name or f"lambda/{direction}",
    )


def ec2_shaper(baseline_rate: float, burst_rate: float,
               bucket_bytes: float,
               name: str | None = None) -> TokenBucketShaper:
    """EC2-style shaper: continuous refill at baseline, drain at burst."""
    return TokenBucketShaper(
        capacity=bucket_bytes,
        burst_rate=burst_rate,
        refill_rate=baseline_rate,
        mode="continuous",
        initial_level=bucket_bytes,
        name=name or "ec2",
    )
