"""End-to-end serving runs: Poisson tenant mixes over the platform.

Generates per-tenant Poisson query streams on one simulated region,
serves them through the shared harness
(:func:`~repro.serve.scheduler.serve_arrivals`: gateway, scheduler,
submissions, drain) with an optional
:class:`~repro.serve.warm_pool.WarmPoolManager` beside it, and reports
each tenant's :class:`~repro.serve.metrics.ServingTally`. With a
fixed seed the whole run — arrivals, scheduling, platform timing — is
deterministic, so policies can be compared on the *same* overload trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.context import CloudSim
from repro.core.plotter import format_table
from repro.serve.gateway import Tenant
from repro.serve.metrics import REPORT_HEADERS, ServingTally
from repro.serve.scheduler import (
    ConcurrencyGovernor,
    make_policy,
    serve_arrivals,
)
from repro.serve.warm_pool import WarmPoolManager, WarmPoolStats
from repro.telemetry.export import canonical_json
from repro.workloads.suite import SuiteSetup, build_plan, setup_engine
from repro.workloads.traffic import poisson_arrivals

#: Lambda concurrency quota of the serving account, and the plan width
#: the default query governor divides it by.
ACCOUNT_QUOTA = 1_000
FRAGMENTS_PER_QUERY = 4


@dataclass
class TenantWorkload:
    """One tenant's traffic description for a serving run."""

    tenant: Tenant
    query: str = "tpch-q6"
    rate_per_hour: float = 600.0
    plan_kwargs: dict = field(default_factory=dict)


def default_tenant_mix(rate_scale: float = 1.0) -> list[TenantWorkload]:
    """The canonical 3-tenant mix used by the CLI, example, and benchmark.

    * ``interactive`` — low-rate, latency-sensitive dashboard queries
      with a tight SLO, high fair-share weight, top priority class;
    * ``analytics`` — mid-rate ad-hoc analyst queries;
    * ``batch`` — a high-rate background ETL stream with a shallow
      queue bound (it sheds first under overload) and minimal weight.
    """
    if rate_scale <= 0:
        raise ValueError("rate_scale must be positive")
    return [
        TenantWorkload(
            tenant=Tenant(name="interactive", priority=0, weight=8.0,
                          max_concurrent=4, max_queue_depth=16,
                          slo_latency_s=20.0),
            query="tpch-q6", rate_per_hour=120.0 * rate_scale,
            plan_kwargs={"scan_fragments": 2}),
        TenantWorkload(
            tenant=Tenant(name="analytics", priority=1, weight=2.0,
                          max_concurrent=3, max_queue_depth=24,
                          slo_latency_s=60.0),
            query="tpch-q1", rate_per_hour=60.0 * rate_scale,
            plan_kwargs={"scan_fragments": 2}),
        TenantWorkload(
            tenant=Tenant(name="batch", priority=2, weight=1.0,
                          max_concurrent=2, max_queue_depth=12,
                          slo_latency_s=300.0),
            query="tpch-q6", rate_per_hour=360.0 * rate_scale,
            plan_kwargs={"scan_fragments": 2}),
    ]


@dataclass
class ServingOutcome:
    """Everything measured over one serving run."""

    policy: str
    window_s: float
    seed: int
    reports: dict[str, ServingTally]
    governor_cap: Optional[int]
    peak_concurrent_queries: int
    warm_stats: Optional[WarmPoolStats] = None
    warm_cost_usd: float = 0.0

    @property
    def total_offered(self) -> int:
        return sum(r.offered for r in self.reports.values())

    @property
    def total_completed(self) -> int:
        return sum(r.completed for r in self.reports.values())

    @property
    def total_shed(self) -> int:
        return sum(r.shed for r in self.reports.values())

    @property
    def total_failed(self) -> int:
        """Queries that started executing but errored out."""
        return sum(r.failed for r in self.reports.values())

    @property
    def total_recovered(self) -> int:
        """Served queries that needed at least one retry or hedge."""
        return sum(r.recovered for r in self.reports.values())

    @property
    def total_cost_usd(self) -> float:
        """Query-attributed cost plus warm-pool keep-alive spend."""
        return (sum(r.cost_usd for r in self.reports.values())
                + self.warm_cost_usd)

    def format_report(self) -> str:
        """Paper-style text table of the per-tenant serving metrics."""
        rows = [report.row(name) for name, report in self.reports.items()]
        title = (f"Serving report — policy={self.policy}, "
                 f"window={self.window_s:.0f}s, seed={self.seed}")
        table = format_table(REPORT_HEADERS, rows, title=title)
        lines = [table,
                 f"queries: {self.total_completed}/{self.total_offered} "
                 f"served, {self.total_shed} shed, {self.total_failed} "
                 f"failed, {self.total_recovered} recovered; "
                 f"peak concurrency "
                 f"{self.peak_concurrent_queries}"
                 + (f"/{self.governor_cap}" if self.governor_cap else ""),
                 f"total cost ${self.total_cost_usd:.4f}"
                 + (f" (incl. ${self.warm_cost_usd:.4f} keep-alive, "
                    f"hit rate {self.warm_stats.hit_rate * 100:.0f}%)"
                    if self.warm_stats else "")]
        return "\n".join(lines)

    def summary(self) -> dict:
        """Flat metric dict (stable keys) for tests and JSON dumps."""
        out = {"policy": self.policy, "offered": self.total_offered,
               "completed": self.total_completed, "shed": self.total_shed,
               "failed": self.total_failed,
               "recovered": self.total_recovered,
               "cost_usd": round(self.total_cost_usd, 10),
               "peak_concurrency": self.peak_concurrent_queries}
        for name, report in self.reports.items():
            out[f"{name}.p50"] = round(report.latency_p50, 9)
            out[f"{name}.p95"] = round(report.latency_p95, 9)
            out[f"{name}.p99"] = round(report.latency_p99, 9)
            out[f"{name}.queue_wait"] = round(report.mean_queue_wait, 9)
            out[f"{name}.slo"] = round(report.slo_attainment, 9)
            out[f"{name}.shed"] = report.shed
            out[f"{name}.failed"] = report.failed
            out[f"{name}.recovered"] = report.recovered
        return out

    def to_json(self) -> str:
        """Canonical JSON artifact (byte-stable for a fixed seed+mix).

        Uses the shared :func:`repro.telemetry.export.canonical_json`
        writer, so serving artifacts follow the same sorted-key,
        rounded-float convention as chaos resilience reports and
        telemetry snapshots.
        """
        payload = dict(self.summary())
        payload["window_s"] = self.window_s
        payload["seed"] = self.seed
        return canonical_json(payload)


def run_serving_workload(workloads: list[TenantWorkload],
                         policy: str = "fifo",
                         window_s: float = 600.0,
                         seed: int = 0,
                         max_concurrent_queries: Optional[int] = None,
                         warm_targets: Optional[dict[str, int]] = None,
                         warm_interval_s: float = 240.0,
                         fault_plan=None) -> ServingOutcome:
    """Serve a multi-tenant Poisson mix on the simulated platform.

    Each tenant's arrivals come from its own named RNG stream, so the
    trace depends only on ``seed`` and the mix — not on the scheduling
    policy — and two runs that differ only in ``policy`` see identical
    overload. Tenants are keyed by name, so each workload needs its own.

    ``fault_plan`` (a :class:`~repro.chaos.plan.FaultPlan` or plan name)
    installs a chaos injector over the run; the engine recovers with the
    default :class:`~repro.faas.supervisor.RecoveryPolicy`.
    """
    if not workloads:
        raise ValueError("need at least one tenant workload")
    names = [w.tenant.name for w in workloads]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"tenant names must be unique; repeated: "
                         f"{', '.join(repeated)}")
    sim = CloudSim(seed=seed, account_quota=ACCOUNT_QUOTA)
    queries = tuple(dict.fromkeys(w.query for w in workloads))
    setup = SuiteSetup(queries=queries, lineitem_partitions=3,
                       orders_partitions=2, clickstreams_partitions=2,
                       rows_per_partition=96)
    engine = setup_engine(sim, setup)
    if fault_plan is not None:
        from repro.chaos.injector import FaultInjector
        from repro.chaos.plan import get_plan
        if isinstance(fault_plan, str):
            fault_plan = get_plan(fault_plan)
        injector = FaultInjector(fault_plan, rng=sim.rng)
        injector.install(platform=sim.platform,
                         services=list(engine.storage.values()))
    arrivals = [
        (w.tenant, build_plan(w.query, **w.plan_kwargs),
         poisson_arrivals(sim.rng.stream(f"serve.{w.tenant.name}"),
                          w.rate_per_hour, window_s))
        for w in workloads]
    if max_concurrent_queries is not None:
        governor = ConcurrencyGovernor(max_concurrent_queries)
    else:
        governor = ConcurrencyGovernor.for_account(ACCOUNT_QUOTA,
                                                   FRAGMENTS_PER_QUERY)
    manager = None
    if warm_targets:
        manager = WarmPoolManager(sim.env, sim.platform, warm_targets,
                                  interval_s=warm_interval_s)
    gateway = serve_arrivals(
        sim, engine, arrivals, make_policy(policy), governor, window_s,
        manager.run(window_s) if manager is not None else None)
    reports = {w.tenant.name: gateway.tally(w.tenant.name)
               for w in workloads}
    return ServingOutcome(
        policy=policy, window_s=window_s, seed=seed, reports=reports,
        governor_cap=governor.max_queries,
        peak_concurrent_queries=governor.peak_in_flight,
        warm_stats=manager.stats if manager is not None else None,
        warm_cost_usd=manager.ping_cost_usd() if manager is not None
        else 0.0)
