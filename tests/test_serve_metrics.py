"""Tests for serving metrics: cost-per-query regimes, SLO, percentiles."""

import math

import pytest

from repro.serve.metrics import (
    CompletedQuery,
    ServingMetrics,
    cost_per_query,
)
from repro.workloads import ArrivalOutcome


class TestCostPerQuery:
    def test_no_traffic_is_free_not_infinite(self):
        """Regression: zero offered queries must not read as overload."""
        assert cost_per_query(0.0, completed=0, offered=0) == 0.0

    def test_all_shed_is_infinite(self):
        """Traffic offered, nothing served: genuinely infinite unit cost."""
        assert math.isinf(cost_per_query(0.37, completed=0, offered=100))

    def test_normal_division(self):
        assert cost_per_query(2.0, completed=4, offered=5) == 0.5


class TestArrivalOutcomeRegression:
    @staticmethod
    def _outcome(run, offered, cost=0.5):
        return ArrivalOutcome(backend="iaas", queries_per_hour=60.0,
                              window_s=600.0, queries_run=run,
                              compute_cost_usd=cost,
                              queries_offered=offered)

    def test_idle_window_cost_per_query_is_zero(self):
        """IaaS billing with no arrivals: no longer reported as inf."""
        assert self._outcome(run=0, offered=0).cost_per_query == 0.0

    def test_all_shed_window_is_infinite(self):
        assert math.isinf(self._outcome(run=0, offered=8).cost_per_query)

    def test_served_window_divides(self):
        assert self._outcome(run=4, offered=4).cost_per_query == 0.125

    def test_legacy_construction_without_offered_count(self):
        # Old call sites never set queries_offered; served runs still work.
        assert self._outcome(run=5, offered=0).cost_per_query == 0.1


class TestServingMetrics:
    @staticmethod
    def _record(tenant, submitted, started, finished, cost=0.01):
        return CompletedQuery(tenant=tenant, query_id="q",
                              submitted_at=submitted, started_at=started,
                              finished_at=finished, runtime=finished - started,
                              cost_usd=cost)

    def test_queue_wait_and_latency(self):
        record = self._record("t", submitted=10.0, started=12.5,
                              finished=14.0)
        assert record.queue_wait == 2.5
        assert record.latency == 4.0

    def test_report_percentiles_and_slo(self):
        metrics = ServingMetrics()
        for latency in (1.0, 2.0, 3.0, 4.0, 40.0):
            metrics.record_offered("t")
            metrics.record_completion(
                self._record("t", 0.0, 0.0, latency))
        report = metrics.tenant_report("t", slo_latency_s=5.0)
        assert report.offered == report.completed == 5
        assert report.latency_p50 == pytest.approx(3.0)
        assert report.latency_p99 > report.latency_p95 > report.latency_p50
        assert report.slo_attainment == pytest.approx(0.8)
        assert report.cost_usd == pytest.approx(0.05)
        assert report.cost_per_query == pytest.approx(0.01)

    def test_shed_counts_against_slo(self):
        metrics = ServingMetrics()
        for _ in range(4):
            metrics.record_offered("t")
        metrics.record_completion(self._record("t", 0.0, 0.0, 1.0))
        for _ in range(3):
            metrics.record_shed("t")
        report = metrics.tenant_report("t", slo_latency_s=5.0)
        assert report.shed == 3
        assert report.shed / report.offered == pytest.approx(0.75)
        assert report.slo_attainment == pytest.approx(0.25)
        assert math.isfinite(report.cost_per_query)

    def test_all_shed_tenant_report(self):
        metrics = ServingMetrics()
        for _ in range(2):
            metrics.record_offered("t")
            metrics.record_shed("t")
        report = metrics.tenant_report("t")
        assert report.completed == 0
        assert report.slo_attainment == 0.0
        assert math.isinf(report.cost_per_query)
        assert report.latency_p99 == 0.0

    def test_silent_tenant_report(self):
        metrics = ServingMetrics()
        report = metrics.tenant_report("quiet")
        assert report.offered == 0
        assert report.slo_attainment == 1.0
        assert report.cost_per_query == 0.0
        assert report.shed == 0

