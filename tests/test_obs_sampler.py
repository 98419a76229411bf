"""Tail sampling: the rule the replay runs, its boundary, conservation.

The rule has one evaluator, the replay's completion loop
(``repro.shard.replay._complete``), fed the spec
``COMPLETION_INTEREST``; everything below drives requests through it
into a ``ReplayObsPlane``'s hook and reads the verdicts back from the
plane's ``TailSampler``. Other specs (thresholds, rates, salts) reach
the plane by patching the constant while it is built.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ReplayObsPlane
from repro.obs import plane as plane_module
from repro.obs.sampler import (
    COMPLETION_INTEREST,
    REASON_BASELINE,
    REASON_FAULT,
    REASON_SLOW,
)
from repro.serve.gateway import QueryRequest
from repro.serve.metrics import ServingTally, roll_up
from repro.shard.replay import _complete
from repro.telemetry import LatencyHistogram

_KNUTH = 2654435761
_MASK = 2 ** 32 - 1


class _Router:
    """The two things a plane's scrape reads off a shard router."""

    def __init__(self, metrics: ServingTally) -> None:
        self.shard_metrics = {"s0": metrics}

    def roll_up(self):
        return roll_up(self.shard_metrics, pending=0, recovered=0)


def interest(slow_threshold_s=2.0, baseline_rate=0.05, seed=0):
    """A ``(slow_threshold_s, salt, cut)`` spec: ``seed`` moves the
    baseline slice, ``baseline_rate`` sizes it."""
    return (slow_threshold_s, seed * 0x9E3779B1 + 0x7F4A7C15,
            int(baseline_rate * 2 ** 32))


def deliver(cases, spec=COMPLETION_INTEREST) -> ReplayObsPlane:
    """Complete ``(seq, latency, rescued)`` requests through the replay's
    filter into a plane built for ``spec``, then scrape once."""
    with mock.patch.object(plane_module, "COMPLETION_INTEREST", spec):
        plane = ReplayObsPlane()
    metrics = ServingTally(math.inf, LatencyHistogram())
    for seq, latency, rescued in cases:
        request = QueryRequest(tenant="t", plan=latency, submitted_at=0.0,
                               seq=seq, priority=0, rescued=rescued)
        _complete(metrics, request, 0.0, "s0", plane.on_completion,
                  *plane.completion_interest)
    plane.on_control_tick(1.0, _Router(metrics))
    return plane


def expected_reason(spec, seq, latency, rescued):
    """The rule, written out case by case from its definition."""
    slow_threshold_s, salt, cut = spec
    if rescued:
        return REASON_FAULT
    if latency >= slow_threshold_s:
        return REASON_SLOW
    if ((seq * _KNUTH + salt) & _MASK) < cut:
        return REASON_BASELINE
    return None


def seq_with_hash(h: int, salt: int) -> int:
    """The sequence number whose salted Knuth hash is ``h``."""
    return ((h - salt) * pow(_KNUTH, -1, 2 ** 32)) & _MASK


class TestConfig:
    def test_default_interest(self):
        assert COMPLETION_INTEREST == interest() \
            == (2.0, 0x7F4A7C15, 214748364)
        assert deliver([]).sampler.summary()["config"] == {
            "slow_threshold_s": 2.0, "baseline_rate": 0.05, "seed": 0}


class TestBoundary:
    def test_hash_under_cut_is_kept_at_cut_is_not(self):
        _, salt, cut = COMPLETION_INTEREST
        below, at = seq_with_hash(cut - 1, salt), seq_with_hash(cut, salt)
        plane = deliver([(below, 0.1, False), (at, 0.1, False)])
        assert plane.sampler.kept_reasons == {f"q{below}": REASON_BASELINE}
        assert plane.sampler.dropped == 1


class TestBaselineKeep:
    def test_deterministic_across_calls(self):
        cases = [(seq, 0.1, False) for seq in range(500)]
        spec = interest(baseline_rate=0.3, seed=7)
        assert deliver(cases, spec).sampler.kept_ids \
            == deliver(cases, spec).sampler.kept_ids

    def test_rate_extremes(self):
        cases = [(seq, 0.1, False) for seq in range(200)]
        assert deliver(cases, interest(baseline_rate=0.0, seed=1)) \
            .sampler.kept == 0
        assert deliver(cases, interest(baseline_rate=1.0, seed=1)) \
            .sampler.kept == 200

    def test_rate_roughly_honoured(self):
        cases = [(seq, 0.1, False) for seq in range(10_000)]
        kept = deliver(cases, interest(baseline_rate=0.1, seed=42)) \
            .sampler.kept
        assert 700 <= kept <= 1300

    def test_seed_changes_the_slice(self):
        cases = [(seq, 0.1, False) for seq in range(1000)]
        a = deliver(cases, interest(baseline_rate=0.2, seed=0))
        b = deliver(cases, interest(baseline_rate=0.2, seed=1))
        assert a.sampler.kept_ids != b.sampler.kept_ids


class TestPrecedence:
    def test_fault_beats_slow(self):
        plane = deliver([(0, 5.0, True)])
        assert plane.sampler.kept_reasons == {"q0": REASON_FAULT}

    def test_slow_beats_baseline(self):
        plane = deliver([(0, 5.0, False)], interest(baseline_rate=1.0))
        assert plane.sampler.kept_reasons == {"q0": REASON_SLOW}

    def test_fast_path_drops_quiet_traces(self):
        plane = deliver([(0, 0.1, False)], interest(baseline_rate=0.0))
        assert plane.sampler.kept_ids == []
        assert plane.sampler.dropped == 1


class TestConservation:
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=2 ** 32),
                  st.floats(min_value=0.0, max_value=5.0),
                  st.booleans()),
        max_size=200, unique_by=lambda case: case[0]),
        st.floats(min_value=0.01, max_value=5.0),
        st.integers(min_value=0, max_value=2 ** 16),
        st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_every_trace_is_kept_or_dropped(self, cases, threshold, seed,
                                            rate):
        spec = interest(threshold, rate, seed)
        sampler = deliver(cases, spec).sampler
        expected = {f"q{seq}": reason for seq, latency, rescued in cases
                    if (reason := expected_reason(spec, seq, latency,
                                                  rescued)) is not None}
        assert sampler.kept_reasons == expected
        assert sampler.kept_ids == [f"q{seq}" for seq, _, _ in cases
                                    if f"q{seq}" in expected]
        assert sampler.check_conservation()
        assert sampler.completed == len(cases)
        assert sampler.completed == sampler.kept + sampler.dropped

    def test_summary_reason_breakdown_sums_to_kept(self):
        cases = [(i, float(i % 4), i % 11 == 0) for i in range(100)]
        summary = deliver(cases, interest(baseline_rate=0.5)) \
            .sampler.summary()
        assert summary["conserved"]
        assert summary["open"] == 0
        assert sum(summary["kept_by_reason"].values()) == summary["kept"]
        assert set(summary["kept_by_reason"]) == {
            "error", REASON_FAULT, REASON_SLOW, REASON_BASELINE}
