"""Unit tests for token-bucket shapers.

The fabric drives a bucket through three functions: :func:`replay`
applies sweeps to it, :func:`ceiling` reads its rate ceiling and
:func:`earliest_change` says when that ceiling next moves. These tests
call them the same way, one load at a time.
"""

from types import SimpleNamespace

import pytest

from repro import units
from repro.network.shaper import (
    _TIME_TOLERANCE,
    LAMBDA_BASELINE_RATE,
    LAMBDA_BUCKET_CAPACITY,
    LAMBDA_BURST_RATE_IN,
    LAMBDA_ONE_OFF_BUDGET,
    TokenBucketShaper,
    ceiling,
    earliest_change,
    ec2_shaper,
    lambda_shaper,
    replay,
)


def sweep(shaper, now, elapsed, rate):
    """Apply one sweep of ``elapsed`` seconds ending at ``now``, drawn
    at ``rate``, as the fabric's walk does."""
    load = SimpleNamespace(constraint=shaper, consumption=rate)
    replay((load,), (elapsed,), (now + _TIME_TOLERANCE,))


def next_change(shaper, now, rate):
    load = SimpleNamespace(constraint=shaper, consumption=rate)
    return earliest_change((load,), now)


class TestContinuousShaper:
    def make(self, capacity=100.0, burst=10.0, refill=1.0):
        return TokenBucketShaper(capacity=capacity, burst_rate=burst,
                                 refill_rate=refill, mode="continuous")

    def test_full_bucket_allows_burst(self):
        shaper = self.make()
        assert ceiling(shaper) == 10.0

    def test_empty_bucket_allows_refill_rate(self):
        shaper = self.make()
        sweep(shaper, now=20.0, elapsed=20.0, rate=10.0)
        assert shaper.level == pytest.approx(0.0)
        assert ceiling(shaper) == 1.0

    def test_level_never_exceeds_capacity(self):
        shaper = self.make()
        sweep(shaper, now=1000.0, elapsed=1000.0, rate=0.0)
        assert shaper.level == 100.0

    def test_refill_offsets_consumption(self):
        shaper = self.make(capacity=100.0, burst=10.0, refill=4.0)
        sweep(shaper, now=10.0, elapsed=10.0, rate=10.0)
        # Net drain 6/s for 10s = 60 consumed from a 100 bucket.
        assert shaper.level == pytest.approx(40.0)

    def test_next_change_predicts_exhaustion(self):
        shaper = self.make(capacity=100.0, burst=10.0, refill=0.0)
        assert next_change(shaper, now=0.0, rate=10.0) == pytest.approx(10.0)

    def test_next_change_stable_when_draining_slower_than_refill(self):
        shaper = self.make(capacity=100.0, burst=10.0, refill=5.0)
        assert next_change(shaper, now=0.0, rate=3.0) == float("inf")

    def test_one_off_budget_spent_first_and_never_refills(self):
        shaper = TokenBucketShaper(capacity=50.0, burst_rate=10.0,
                                   refill_rate=0.0, mode="continuous",
                                   one_off_budget=30.0, initial_level=50.0)
        sweep(shaper, now=2.0, elapsed=2.0, rate=10.0)
        assert shaper.one_off_remaining == pytest.approx(10.0)
        assert shaper.level == pytest.approx(50.0)
        sweep(shaper, now=4.0, elapsed=2.0, rate=10.0)
        assert shaper.one_off_remaining == 0.0
        assert shaper.level == pytest.approx(40.0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            TokenBucketShaper(capacity=1, burst_rate=1, refill_rate=1,
                              mode="bogus")


class TestQuantizedShaper:
    def make(self):
        return TokenBucketShaper(capacity=10.0, burst_rate=100.0,
                                 refill_rate=10.0, mode="quantized",
                                 grant_interval=0.1, initial_level=10.0)

    def test_stalls_when_empty(self):
        shaper = self.make()
        sweep(shaper, now=0.05, elapsed=0.05, rate=100.0)
        # 5 consumed, 5 left; no grant boundary crossed yet.
        assert shaper.level == pytest.approx(5.0)
        sweep(shaper, now=0.09, elapsed=0.04, rate=100.0)
        assert shaper.level == pytest.approx(1.0)
        assert ceiling(shaper) == 100.0
        sweep(shaper, now=0.099, elapsed=0.009, rate=100.0)
        assert ceiling(shaper) == pytest.approx(100.0)

    def test_grant_arrives_at_interval_boundary(self):
        shaper = self.make()
        sweep(shaper, now=0.099, elapsed=0.099, rate=100.0)
        # 9.9 consumed of 10; cross the boundary at t=0.1 with no traffic:
        sweep(shaper, now=0.11, elapsed=0.011, rate=0.0)
        # One grant of refill*interval = 1.0 arrived.
        assert shaper.level == pytest.approx(0.1 + 1.0)

    def test_next_change_is_grant_boundary_when_empty(self):
        shaper = TokenBucketShaper(capacity=10.0, burst_rate=100.0,
                                   refill_rate=10.0, mode="quantized",
                                   grant_interval=0.1, initial_level=0.0)
        assert ceiling(shaper) == 0.0
        assert next_change(shaper, now=0.25, rate=0.0) == pytest.approx(0.3)

    def test_grants_are_stateful_and_delivered_once(self):
        shaper = self.make()
        sweep(shaper, now=0.05, elapsed=0.05, rate=100.0)
        assert shaper.level == pytest.approx(5.0)
        # Grants due at 0.1, 0.2, 0.3 are all delivered by t=0.35 ...
        sweep(shaper, now=0.35, elapsed=0.3, rate=0.0)
        assert shaper.level == pytest.approx(8.0)
        # ... never again by the same horizon ...
        sweep(shaper, now=0.35, elapsed=0.0, rate=0.0)
        assert shaper.level == pytest.approx(8.0)
        # ... and the schedule carries on from where it was.
        sweep(shaper, now=0.45, elapsed=0.1, rate=0.0)
        assert shaper.level == pytest.approx(9.0)

    def test_next_grant_time_is_strictly_future(self):
        shaper = self.make()
        boundary = next_change(shaper, now=0.09, rate=0.0)
        assert boundary == pytest.approx(0.1)
        # Exactly at (or one ulp before) the boundary, the next grant is
        # the following one.
        assert next_change(shaper, now=boundary, rate=0.0) \
            == pytest.approx(0.2)

    @pytest.mark.parametrize("interval", [0.0, -0.1])
    def test_nonpositive_grant_interval_rejected(self, interval):
        # Its grant schedule would never pass a horizon.
        with pytest.raises(ValueError):
            TokenBucketShaper(capacity=10.0, burst_rate=100.0,
                              refill_rate=10.0, mode="quantized",
                              grant_interval=interval)


class TestIdleRefill:
    def make(self, initial):
        return TokenBucketShaper(capacity=100.0, burst_rate=10.0,
                                 refill_rate=0.0, mode="continuous",
                                 idle_refill_level=50.0,
                                 initial_level=initial)

    def test_long_idle_restores_level_on_activation(self):
        shaper = self.make(initial=0.0)
        shaper.on_idle(now=0.0)
        shaper.on_activate(now=5.0)
        assert shaper.level == 50.0

    def test_short_gap_does_not_refill(self):
        """Millisecond gaps between back-to-back requests never refill."""
        shaper = self.make(initial=0.0)
        shaper.on_idle(now=0.0)
        shaper.on_activate(now=0.03)
        assert shaper.level == 0.0

    def test_refill_never_lowers_level(self):
        shaper = self.make(initial=80.0)
        shaper.on_idle(now=0.0)
        shaper.on_activate(now=5.0)
        assert shaper.level == 80.0

    def test_noop_without_refill_level(self):
        shaper = TokenBucketShaper(capacity=100.0, burst_rate=10.0,
                                   refill_rate=0.0, initial_level=10.0)
        shaper.on_idle(now=0.0)
        shaper.on_activate(now=100.0)
        assert shaper.level == 10.0

    def test_first_idle_timestamp_kept(self):
        """Repeated on_idle calls do not push the idle start forward."""
        shaper = self.make(initial=0.0)
        shaper.on_idle(now=0.0)
        shaper.on_idle(now=4.9)
        shaper.on_activate(now=5.0)
        assert shaper.level == 50.0


class TestCalibratedFactories:
    def test_lambda_shaper_inbound_parameters(self):
        shaper = lambda_shaper("in")
        assert shaper.burst_rate == LAMBDA_BURST_RATE_IN
        assert shaper.one_off_remaining == LAMBDA_ONE_OFF_BUDGET
        assert shaper.level == LAMBDA_BUCKET_CAPACITY
        # Total initial budget of ~300 MiB (Section 4.2.1).
        assert shaper.budget == pytest.approx(300 * units.MiB)
        assert shaper.refill_rate == LAMBDA_BASELINE_RATE

    def test_lambda_shaper_outbound_is_slower(self):
        assert lambda_shaper("out").burst_rate < lambda_shaper("in").burst_rate

    def test_lambda_shaper_direction_validated(self):
        with pytest.raises(ValueError):
            lambda_shaper("sideways")

    def test_ec2_shaper_is_continuous(self):
        shaper = ec2_shaper(baseline_rate=100.0, burst_rate=1000.0,
                            bucket_bytes=5000.0)
        assert shaper.mode == "continuous"
        assert shaper.level == 5000.0
