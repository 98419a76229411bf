"""Tests for serving metrics: cost-per-query regimes, SLO, percentiles."""

import math

import pytest

from repro.serve import (
    ConcurrencyGovernor,
    QueryGateway,
    QueryScheduler,
    Tenant,
    make_policy,
)
from repro.serve.metrics import QuerySample, ServingTally, cost_per_query
from repro.sim import Environment
from repro.workloads import ArrivalOutcome
from tests.test_serve_scheduler import FakeEngine


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


def tenant_tally(slo_latency_s=math.inf):
    return ServingTally(slo_latency_s, QuerySample())


def complete(tally, latency, cost=0.01):
    """Count one query served with ``latency`` and no queue wait."""
    tally.offered += 1
    tally.completed += 1
    tally.latency.latencies.append(latency)
    tally.cost_usd += cost
    if latency <= tally.slo_latency_s:
        tally.within_slo += 1


class TestServingMetrics:
    def test_queue_wait_and_latency(self):
        """The scheduler records a served query's wait and latency."""
        env = Environment()
        gateway = QueryGateway(env)
        gateway.register(Tenant(name="t", max_concurrent=1,
                                slo_latency_s=2.0))
        scheduler = QueryScheduler(env, FakeEngine(env, 1.5), gateway,
                                   make_policy("fifo"),
                                   ConcurrencyGovernor())
        gateway.submit("t", "first")
        gateway.submit("t", "second")  # waits 1.5 s for the first
        scheduler.start()
        env.run(until=scheduler.drained())
        tally = gateway.tally("t")
        assert tally.latency.latencies == [1.5, 3.0]
        assert tally.latency.runtimes == [1.5, 1.5]
        assert tally.queue_wait_sum == 1.5
        assert tally.mean_queue_wait == 0.75
        assert tally.within_slo == 1
        assert tally.cost_usd == pytest.approx(0.03)

    def test_report_percentiles_and_slo(self):
        tally = tenant_tally(slo_latency_s=5.0)
        for latency in (1.0, 2.0, 3.0, 4.0, 40.0):
            complete(tally, latency)
        assert tally.offered == tally.completed == 5
        assert tally.latency_p50 == pytest.approx(3.0)
        assert tally.latency_p99 > tally.latency_p95 > tally.latency_p50
        assert tally.slo_attainment == pytest.approx(0.8)
        assert tally.cost_usd == pytest.approx(0.05)
        assert tally.cost_per_query == pytest.approx(0.01)

    def test_shed_counts_against_slo(self):
        tally = tenant_tally(slo_latency_s=5.0)
        complete(tally, 1.0)
        tally.offered += 3
        tally.shed += 3
        assert tally.shed == 3
        assert tally.shed / tally.offered == pytest.approx(0.75)
        assert tally.slo_attainment == pytest.approx(0.25)
        assert math.isfinite(tally.cost_per_query)

    def test_all_shed_tenant_report(self):
        tally = tenant_tally()
        tally.offered += 2
        tally.shed += 2
        assert tally.completed == 0
        assert tally.slo_attainment == 0.0
        assert math.isinf(tally.cost_per_query)
        assert tally.latency_p99 == 0.0
        assert tally.row("t")[-1] == "inf"

    def test_silent_tenant_report(self):
        tally = tenant_tally()
        assert tally.offered == 0
        assert tally.slo_attainment == 1.0
        assert tally.cost_per_query == 0.0
        assert tally.shed == 0
        assert tally.mean_queue_wait == 0.0
