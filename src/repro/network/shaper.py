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
from bisect import bisect_left
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

#: The most sweeps a deferred bucket or flow goes without being brought
#: up to date and re-keyed: the fabric's sweep log never holds more.
SWEEP_LOG_CAP = 256

#: Relative rounding margin of a deferral key. Over at most
#: :data:`SWEEP_LOG_CAP` sweeps, an ordered fold drifts from the straight
#: line through its anchor by under ``(SWEEP_LOG_CAP + 8) * 2**-53`` of
#: the scale it is taken against (``docs/performance.md`` derives the
#: bound); four times that is the margin.
ROUNDING_MARGIN = 4 * (SWEEP_LOG_CAP + 8) * 2.0 ** -53

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

    The shaper is driven by the fabric, which applies its sweeps to the
    bucket with :func:`replay` (consume tokens over each elapsed interval,
    in order), reads its :func:`ceiling` and asks :func:`earliest_change`
    when that ceiling next moves.

    While the bucket has flows in a fabric, ``_entry`` is that fabric's
    registry entry for it. Every read below first brings the bucket up
    to the fabric's last sweep (a walking fabric keeps it there), and
    :meth:`degrade` marks the entry dirty.
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
        if mode == "quantized" and not grant_interval > 0:
            raise ValueError("grant_interval must be positive, "
                             f"got {grant_interval}")
        self.capacity = float(capacity)
        self.burst_rate = float(burst_rate)
        self.refill_rate = float(refill_rate)
        self.mode = mode
        self._one_off = float(one_off_budget)
        self.idle_refill_level = (float(idle_refill_level)
                                  if idle_refill_level is not None else None)
        self.grant_interval = float(grant_interval)
        self._level = float(initial_level if initial_level is not None else capacity)
        #: Absolute time of the next quantized grant (stateful, to avoid
        #: float-grid mismatches between scheduling and accounting).
        self._next_grant_at = self.grant_interval
        #: When the shaper last went idle (None while active).
        self._idle_since: float | None = None
        #: The fabric's registry entry, while the bucket has flows.
        self._entry = None
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

    # -- inspection ---------------------------------------------------------

    def _sync(self) -> None:
        entry = self._entry
        if entry is not None:
            entry.fabric._catch_up_state(entry)

    @property
    def level(self) -> float:
        """Tokens currently in the rechargeable bucket (bytes)."""
        self._sync()
        return self._level

    @property
    def one_off_remaining(self) -> float:
        """What is left of the one-off budget (bytes)."""
        self._sync()
        return self._one_off

    @property
    def budget(self) -> float:
        """Total immediately spendable bytes (one-off + bucket)."""
        self._sync()
        return self._one_off + self._level

    def state(self) -> ShaperState:
        """Return a snapshot for assertions in tests."""
        self._sync()
        return ShaperState(level=self._level,
                           one_off_remaining=self._one_off,
                           mode=self.mode)

    def _record(self, now: float, ceiling: float) -> None:
        """Sample the bucket after an advance (recorder-on path only)."""
        self._level_series.sample(now, self._level)
        self._rate_series.sample(now, ceiling)
        throttled = self._one_off + self._level <= 0
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
        entry = self._entry
        if entry is not None:
            # Up to date under the old rates; the next update reallocates
            # its component under the new ones.
            entry.fabric._catch_up_state(entry)
            entry.fabric._dirty.add(entry.key)
        self.burst_rate *= factor
        self.refill_rate *= factor

    def on_idle(self, now: float) -> None:
        """The last flow through this shaper stopped at time ``now``."""
        if self.idle_refill_level is not None and self._idle_since is None:
            self._idle_since = now

    def on_activate(self, now: float) -> None:
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


def replay(loads, elapsed, horizons) -> None:
    """Apply sweeps to every load's bucket, in order.

    Each load names a shaper (``constraint``) and the aggregate rate its
    flows draw (``consumption``). ``elapsed`` and ``horizons`` are
    parallel sequences, one item per sweep: the seconds it covered (the
    fabric never passes 0: a sweep that covers no time moves nothing, so
    it neither applies nor logs one), and its ``now`` plus the time
    tolerance.

    This is the one copy of the bucket arithmetic. The fabric's walk
    applies one sweep to all of its loads; a deferred bucket's catch-up
    applies its logged sweeps to the one load. Both are the same IEEE
    operations on the same operands in the same order, so a bucket
    reaches the same floats whether it was walked at every update or
    caught up later.
    """
    sweeps = tuple(zip(elapsed, horizons))  # walked once per load
    for load in loads:
        shaper = load.constraint
        consumption = load.consumption
        level = shaper._level
        one_off = shaper._one_off
        quantized = shaper.mode == "quantized"
        capacity = shaper.capacity
        refill = shaper.refill_rate
        interval = shaper.grant_interval
        next_grant = shaper._next_grant_at
        for dt, horizon in sweeps:
            consumed = consumption * dt
            # One-off budget is spent first and never refills.
            from_one_off = one_off if one_off < consumed else consumed
            one_off -= from_one_off
            if quantized:
                # Stateful grant schedule: every grant due by the horizon
                # (with tolerance for float drift) arrives exactly once.
                grants = 0.0
                if refill > 0 and not next_grant > horizon:
                    count = 1 + math.floor((horizon - next_grant) / interval)
                    next_grant += count * interval
                    grants = count * (refill * interval)
                level = level + grants - (consumed - from_one_off)
            else:
                level = level - ((consumed - from_one_off) - refill * dt)
            if not level < capacity:
                level = capacity
            # Clamp float residue (and any overdraft) so exhaustion is
            # reached exactly, not asymptotically — which would flood the
            # fabric with micro-wakeups.
            if level < _EPSILON_BYTES:
                level = 0.0
            if one_off < _EPSILON_BYTES:
                one_off = 0.0
        shaper._level = level
        shaper._one_off = one_off
        shaper._next_grant_at = next_grant


def ceiling(shaper: TokenBucketShaper) -> float:
    """The bucket's aggregate rate ceiling in its current state."""
    if shaper._one_off + shaper._level > 0:
        return shaper.burst_rate
    if shaper.mode == "quantized":
        return 0.0  # stalled until the next grant
    if shaper.burst_rate < shaper.refill_rate:
        return shaper.burst_rate
    return shaper.refill_rate


def earliest_change(loads, now: float, earliest: float = math.inf) -> float:
    """Earliest time any load's ceiling next changes, capped by ``earliest``.

    A ceiling changes when the spendable budget runs out under the
    load's consumption, or — quantized shapers — at the next grant
    strictly after ``now``. Stable loads contribute ``inf``.
    """
    horizon = now + _TIME_TOLERANCE
    for load in loads:
        shaper = load.constraint
        budget = shaper._one_off + shaper._level
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


def deferral_key(load, now: float) -> tuple[float, bool]:
    """How long sweeps may leave ``load``'s bucket alone after ``now``.

    ``now`` is the time of the last sweep the bucket has applied, and
    ``load.consumption`` its draw until its members are reallocated.
    Returns ``(key, exact)``: no sweep whose horizon is below ``key`` can
    move the bucket's ceiling, and until then its
    :func:`earliest_change` term is at least ``key``; with ``exact`` the
    term is ``key`` itself, its next grant.

    * A quantized bucket that nothing drains, or that has nothing left,
      changes only at its next grant (``inf`` without a refill). An
      overdue grant of a bucket with a budget moves no ceiling, so the
      key is :func:`_grant_bound`; of an empty bucket, the overdue grant
      time itself, so the next sweep touches it.
    * A draining bucket cannot run dry before its analytic exhaustion
      time less two clamps' worth of budget and the rounding margin (a
      grant only adds budget); a quantized one is also touched at its
      grant.
    * A continuous bucket with a budget that is not draining keeps its
      ceiling for good: ``inf``.
    * ``-inf`` (every sweep touches it): a continuous bucket that is
      empty, or that spends a one-off budget while its level refills
      under the cap, and a shaper with a recorder, which samples every
      advance.
    """
    shaper = load.constraint
    if shaper._telemetry is not None:
        return -math.inf, False
    consumption = load.consumption
    budget = shaper._one_off + shaper._level
    if shaper.mode == "quantized":
        grant, exact = math.inf, True
        if shaper.refill_rate > 0:
            grant = shaper._next_grant_at
            horizon = now + _TIME_TOLERANCE
            if not grant > horizon:
                exact = False
                if budget > 0:
                    grant = _grant_bound(shaper, horizon)
        if not (budget > 0 and consumption > 0):
            return grant, exact
        drain = consumption
        scale = budget
    else:
        if not budget > 0 or (consumption > 0 and shaper._one_off > 0):
            return -math.inf, False
        drain = consumption - shaper.refill_rate
        if not drain > 0:
            return math.inf, True
        grant, exact = math.inf, True
        # Each sweep's decrement is rounded against the two rates, not
        # against their difference.
        scale = budget + (consumption + shaper.refill_rate) * budget / drain
    exhaust = (now + (budget - 2 * _EPSILON_BYTES) / drain
               - ROUNDING_MARGIN * ((now if now > 0.0 else -now)
                                    + scale / drain))
    if grant <= exhaust:
        return grant, exact
    return exhaust, False


def _grant_bound(shaper: TokenBucketShaper, horizon: float) -> float:
    """A lower bound of :func:`earliest_change`'s grant term while the
    next grant is overdue (``_next_grant_at <= horizon``), and of every
    grant term after the overdue grants are delivered.

    The term adds ``grant_interval`` to the overdue grant time until it
    passes ``horizon``: it is the first grid point past ``horizon``, off
    by at most the additions' rounding, ``slack / 4``. Delivery moves the
    grant time to that grid point or a later one. Flooring with twice the
    slack taken off cannot pick a later grid point, so subtracting the
    slack once more is a lower bound; and no term is below ``horizon``.
    """
    due = shaper._next_grant_at
    interval = shaper.grant_interval
    steps = (horizon - due) / interval + 2
    slack = 4 * steps * 2.0 ** -53 * (abs(due) + abs(horizon) + 2 * interval)
    count = math.floor((horizon - due - 2 * slack) / interval) + 1
    bound = due + count * interval - slack
    return bound if bound > horizon else horizon


def catch_up(load, elapsed: list, horizons: list, start: int) -> None:
    """Apply sweeps ``start:`` of a log to ``load``'s bucket, at its
    consumption: the floats :func:`replay` reaches, with two shortcuts.

    Both hold for a quantized bucket in the form every advance leaves
    (level within its capacity, level and one-off budget each 0 or at
    least the clamp), over the sweeps before its next grant falls due.
    A sweep a grant falls due in is replayed alone.

    * *Quiet.* Drawn at 0.0, every such sweep leaves the bucket as it is
      (``level + 0.0 - (0.0 - 0.0)``, and the cap and clamps keep it), so
      they are skipped.
    * *Drain fold.* Drawn at ``c > 0``, such a sweep spends from the
      one-off budget while it covers the draw, else from the level, and
      the other one stays as it is (``level + 0.0 - (consumed -
      consumed)``). While what it spends from ends at or above the clamp
      — ``fl(x - c * elapsed)`` above 0 means ``x`` covered the draw — it
      is the fold ``x - c * elapsed`` on that one float, in order, which
      runs alone. A fold that ends below the clamp is dropped, and the
      sweeps are replayed from the state it started from.
    """
    shaper = load.constraint
    consumption = load.consumption
    end = len(elapsed)
    while start < end:
        level = shaper._level
        one_off = shaper._one_off
        if not (shaper.mode == "quantized" and level <= shaper.capacity
                and (level == 0.0 or level >= _EPSILON_BYTES)
                and (one_off == 0.0 or one_off >= _EPSILON_BYTES)):
            break
        grant_at = shaper._next_grant_at
        if shaper.refill_rate > 0 and not horizons[-1] < grant_at:
            stop = bisect_left(horizons, grant_at, start)
        else:
            stop = end
        if consumption > 0.0 and start < stop:
            spent = one_off if one_off > 0 else level
            for dt in elapsed[start:stop]:
                spent = spent - consumption * dt
            if not spent >= _EPSILON_BYTES:
                break
            if one_off > 0:
                shaper._one_off = spent
            else:
                shaper._level = spent
        if stop == end:
            return
        replay((load,), elapsed[stop:stop + 1], horizons[stop:stop + 1])
        start = stop + 1
    if start < end:
        replay((load,), elapsed[start:], horizons[start:])


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


def lambda_shaper(direction: str = "in") -> TokenBucketShaper:
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
        name=f"lambda/{direction}",
    )


def ec2_shaper(baseline_rate: float, burst_rate: float,
               bucket_bytes: float) -> TokenBucketShaper:
    """EC2-style shaper: continuous refill at baseline, drain at burst."""
    return TokenBucketShaper(
        capacity=bucket_bytes,
        burst_rate=burst_rate,
        refill_rate=baseline_rate,
        mode="continuous",
        initial_level=bucket_bytes,
        name="ec2",
    )
