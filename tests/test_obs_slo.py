"""SLO engine: windows, burn-rate alerts, budgets."""

import pytest

from repro.obs import slo
from repro.obs.slo import BurnRule, SLOEngine, SlidingWindow
from repro.telemetry import canonical_json

RULE = BurnRule(name="fast", long_window_s=120.0, short_window_s=30.0,
                factor=4.0)


@pytest.fixture
def one_rule(monkeypatch):
    """The engine with ``RULE`` alone, so each test sees one rule fire."""
    monkeypatch.setattr(slo, "BURN_RULES", (RULE,))


class TestValidation:
    def test_short_window_must_not_exceed_long(self):
        with pytest.raises(ValueError):
            BurnRule(name="bad", long_window_s=10.0, short_window_s=20.0,
                     factor=2.0)

    def test_budget_fraction(self):
        assert slo.BUDGET_FRACTION == pytest.approx(0.1)


class TestSlidingWindow:
    def test_counts_trailing_window_only(self):
        window = SlidingWindow(window_s=10.0, bucket_s=1.0)
        window.record(1.0, True)
        window.record(5.0, False)
        window.record(14.0, True)
        good, bad = window.counts(14.0)
        assert (good, bad) == (1, 1)  # t=1 has aged out of (4, 14]
        assert window.bad_fraction(14.0) == pytest.approx(0.5)

    def test_memory_is_bounded_by_bucket_count(self):
        window = SlidingWindow(window_s=10.0, bucket_s=1.0)
        for i in range(10_000):
            window.record(float(i), True)
        assert len(window._buckets) <= 12

    def test_bulk_count_equals_repeated_records(self):
        one = SlidingWindow(window_s=10.0, bucket_s=1.0)
        bulk = SlidingWindow(window_s=10.0, bucket_s=1.0)
        for _ in range(7):
            one.record(3.0, False)
        bulk.record(3.0, False, count=7)
        assert one.counts(5.0) == bulk.counts(5.0)

    def test_empty_window_has_zero_bad_fraction(self):
        assert SlidingWindow(5.0, 1.0).bad_fraction(100.0) == 0.0


@pytest.mark.usefixtures("one_rule")
class TestBurnAlerts:
    def test_fires_only_when_both_windows_burn(self):
        engine = SLOEngine()
        # Long window burns (>= 40% bad over 120s) but the last 30s are
        # clean: no alert.
        engine.record(10.0, "s", False, count=50)
        engine.record(10.0, "s", True, count=50)
        engine.record(115.0, "s", True, count=100)
        assert engine.evaluate(115.0) == []
        # Now the short window burns too.
        engine.record(116.0, "s", False, count=100)
        fired = engine.evaluate(116.0)
        assert [a.rule for a in fired] == ["fast"]
        assert fired[0].scope == "s"
        assert fired[0].short_burn >= RULE.factor
        assert fired[0].long_burn >= RULE.factor

    def test_alert_latches_until_long_window_recovers(self):
        engine = SLOEngine()
        engine.record(5.0, "s", False, count=100)
        assert len(engine.evaluate(6.0)) == 1
        # Still burning: latched, no duplicate alert.
        engine.record(7.0, "s", False, count=100)
        assert engine.evaluate(8.0) == []
        # 130s later everything has aged out; the rule re-arms and a
        # fresh burst fires again.
        assert engine.evaluate(140.0) == []
        engine.record(141.0, "s", False, count=100)
        assert len(engine.evaluate(141.0)) == 1
        assert len(engine.alerts) == 2

    def test_scopes_are_independent(self):
        engine = SLOEngine()
        engine.record(5.0, "a", False, count=100)
        engine.record(5.0, "b", True, count=100)
        fired = engine.evaluate(6.0)
        assert [a.scope for a in fired] == ["a"]


class TestBudget:
    def test_budget_consumed_is_relative_to_objective(self):
        engine = SLOEngine()  # 10% budget
        engine.record(1.0, "s", True, count=90)
        engine.record(1.0, "s", False, count=10)
        # Exactly at the objective: budget fully (1.0x) consumed.
        assert engine.budget_consumed("s") == pytest.approx(1.0)
        engine.record(2.0, "s", False, count=100)
        assert engine.budget_consumed("s") > 1.0

    def test_unknown_scope_consumes_nothing(self):
        assert SLOEngine().budget_consumed("nope") == 0.0

    def test_report_shape(self):
        engine = SLOEngine()
        engine.record(1.0, "s", True)
        engine.record(2.0, "s", False, count=100)
        engine.evaluate(3.0)
        report = engine.report(3.0)
        assert report["schema"] == "repro.obs.slo/1"
        assert report["policy"] == {
            "name": "serving-latency", "objective": 0.9, "latency_s": 2.0,
            "rules": [{"name": "fast-burn", "long_window_s": 120.0,
                       "short_window_s": 30.0, "factor": 4.0},
                      {"name": "slow-burn", "long_window_s": 300.0,
                       "short_window_s": 60.0, "factor": 2.0}]}
        assert report["scopes"]["s"]["total"] == 101
        assert report["scopes"]["s"]["firing"] == ["fast-burn", "slow-burn"]
        assert len(report["alerts"]) == 2
        # Canonical JSON must serialize without type errors.
        canonical_json(report)
