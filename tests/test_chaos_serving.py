"""Serving-layer integration under fault injection.

Drives the multi-tenant gateway with the ``throttle-storm`` plan at a
traffic level that pressures the (deliberately shallow) queue bounds, so
the run exhibits both *shed* queries — turned away at admission, a
deliberate decision — and *recovered* queries — served, but only after
the recovery layer retried a crashed fragment. The metrics must keep the
two (and outright *failures*) distinct.
"""

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.engine.barrier import BarrierRegistry
from repro.engine.coordinator import FragmentFailure, RecoveryConfig
from repro.serve import service
from repro.serve.gateway import Tenant
from repro.serve.service import TenantWorkload, run_serving_workload


def storm_workloads():
    # max_concurrent=1 with a 2-deep queue at 900 arrivals/hour: the
    # backlog bound binds quickly once throttle delays stretch service
    # times, so admission control sheds while retries recover crashes.
    return [
        TenantWorkload(
            tenant=Tenant(name="interactive", priority=0, weight=4.0,
                          max_concurrent=1, max_queue_depth=2,
                          slo_latency_s=30.0),
            query="tpch-q6", rate_per_hour=900.0,
            plan_kwargs={"scan_fragments": 2}),
        TenantWorkload(
            tenant=Tenant(name="batch", priority=2, weight=1.0,
                          max_concurrent=1, max_queue_depth=2,
                          slo_latency_s=300.0),
            query="tpch-q6", rate_per_hour=900.0,
            plan_kwargs={"scan_fragments": 2}),
    ]


@pytest.fixture(scope="module")
def outcome():
    return run_serving_workload(storm_workloads(), policy="fair",
                                window_s=180.0, seed=1,
                                fault_plan="throttle-storm")


class TestServingUnderThrottleStorm:
    def test_shed_and_recovered_are_both_present_and_distinct(self, outcome):
        summary = outcome.summary()
        # Overload sheds at admission *and* crashes recover via retry —
        # the run must exhibit both, as different metrics.
        assert summary["shed"] > 0
        assert summary["recovered"] > 0
        assert summary["shed"] != summary["recovered"]
        # Recovered queries were served: they count in completed too.
        assert summary["recovered"] <= summary["completed"]

    def test_every_offered_query_is_accounted_once(self, outcome):
        summary = outcome.summary()
        assert summary["offered"] == (summary["completed"] + summary["shed"]
                                      + summary["failed"])

    def test_per_tenant_reports_carry_all_three_outcomes(self, outcome):
        summary = outcome.summary()
        for name in ("interactive", "batch"):
            for metric in ("shed", "failed", "recovered"):
                assert f"{name}.{metric}" in summary

    def test_report_text_names_failed_and_recovered(self, outcome):
        text = outcome.format_report()
        assert "failed" in text
        assert "recovered" in text

    def test_same_seed_reproduces_the_storm(self):
        first = run_serving_workload(storm_workloads(), policy="fair",
                                     window_s=180.0, seed=1,
                                     fault_plan="throttle-storm")
        second = run_serving_workload(storm_workloads(), policy="fair",
                                      window_s=180.0, seed=1,
                                      fault_plan="throttle-storm")
        assert first.summary() == second.summary()


@pytest.fixture(scope="module")
def failed_window():
    """A window in which exactly one admitted query dies.

    One worker of a barrier-synchronized Q12 join crashes 30 s in, and
    with ``max_attempts=1`` nothing retries it: the query fails while
    its other join worker is parked at the barrier. Returns the outcome,
    the engine the service built, and every ``barriers.clear`` call as
    ``(time, query_id, barriers dropped)``.
    """
    plan = FaultPlan(
        name="one-join-crash",
        description="A single join worker crashes, once.",
        specs=(FaultSpec(kind="worker_crash", function="skyrise-worker",
                         pipeline="join", start_s=30.0, delay_s=0.05,
                         max_events=1),))
    workloads = [TenantWorkload(
        tenant=Tenant(name="batch", priority=0, weight=1.0,
                      max_concurrent=1, max_queue_depth=2,
                      slo_latency_s=300.0),
        query="tpch-q12", rate_per_hour=600.0,
        plan_kwargs={"join_fragments": 2, "barrier_on_join": True})]
    engines, cleared = [], []
    setup_engine, clear = service.setup_engine, BarrierRegistry.clear

    def capture(*args, **kwargs):
        engines.append(setup_engine(*args, **kwargs))
        return engines[-1]

    def spy(registry, query_id):
        cleared.append((registry.env.now, query_id,
                        sum(key[0] == query_id
                            for key in registry._barriers)))
        clear(registry, query_id)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service, "setup_engine", capture)
        patch.setattr(BarrierRegistry, "clear", spy)
        outcome = run_serving_workload(
            workloads, policy="fifo", window_s=120.0, seed=3,
            fault_plan=plan, recovery=RecoveryConfig(max_attempts=1))
    return outcome, engines[0], cleared


class TestServingWithAFailedQuery:
    """Failed is an execution outcome: counted, and serving goes on."""

    def test_failed_is_counted_apart_from_shed(self, failed_window):
        outcome, _, _ = failed_window
        summary = outcome.summary()
        assert summary["failed"] == summary["batch.failed"] == 1
        assert summary["shed"] >= 1
        assert summary["recovered"] == 0
        assert summary["offered"] == (summary["completed"] + summary["shed"]
                                      + summary["failed"])
        # A failed query misses its SLO like a shed one.
        assert outcome.reports["batch"].slo_attainment \
            == summary["completed"] / summary["offered"]

    def test_queries_after_the_failure_still_complete(self, failed_window):
        _, engine, _ = failed_window
        queries = [record for record in engine.backend.records
                   if record.function == "skyrise-coordinator"]
        [dead] = [record for record in queries if record.error is not None]
        assert isinstance(dead.error, FragmentFailure)
        assert (dead.error.pipeline, dead.error.attempts) == ("join", 1)
        assert any(record.finished_at < dead.requested_at
                   for record in queries)
        assert sum(record.requested_at >= dead.finished_at
                   and record.error is None for record in queries) >= 5

    def test_the_failed_querys_barriers_are_cleared(self, failed_window):
        _, engine, cleared = failed_window
        [dead] = [record for record in engine.backend.records
                  if record.function == "skyrise-coordinator"
                  and record.error is not None]
        # Its surviving join worker had reached the barrier; the
        # scheduler drops it the moment the failure surfaces, before the
        # tenant's next query could inherit a half-arrived rendezvous.
        assert (dead.finished_at, "tpch-q12", 1) in cleared
        assert engine.barriers._barriers == {}
