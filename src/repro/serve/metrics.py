"""Serving metrics: queue wait, latency percentiles, SLO, shed, cost.

Records the lifecycle of every query a tenant offers to the gateway —
submitted, shed, or completed — and reduces the records to the serving
numbers operators actually watch: per-tenant p50/p95/p99 end-to-end
latency, mean queue wait, SLO attainment, shed rate, and dollars per
query. A shed query counts against SLO attainment: traffic turned away
is traffic not served within its deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.stats import percentiles

#: Percentile points reported for end-to-end latency.
LATENCY_POINTS = (50.0, 95.0, 99.0)


def cost_per_query(total_cost_usd: float, completed: int,
                   offered: int) -> float:
    """Average dollars per served query, distinguishing empty regimes.

    * No traffic was offered: serving nothing costs nothing per query
      (0.0) — not infinity, which would poison downstream aggregation.
    * Traffic was offered but nothing completed (all shed or failed):
      genuinely infinite unit cost — money may have been spent, queries
      were not served.
    """
    if offered <= 0:
        return 0.0
    if completed <= 0:
        return math.inf
    return total_cost_usd / completed


@dataclass
class CompletedQuery:
    """Lifecycle timestamps and cost of one served query."""

    tenant: str
    query_id: str
    submitted_at: float
    started_at: float
    finished_at: float
    #: Engine-reported execution time (excludes queue wait).
    runtime: float = 0.0
    cost_usd: float = 0.0
    #: Recovery accounting of the underlying execution (zero when the
    #: query ran fault-free).
    retries: int = 0
    hedges: int = 0

    @property
    def queue_wait(self) -> float:
        """Time spent in the gateway queue before dispatch."""
        return self.started_at - self.submitted_at

    @property
    def latency(self) -> float:
        """End-to-end latency the tenant observed."""
        return self.finished_at - self.submitted_at


@dataclass
class TenantReport:
    """Reduced serving metrics of one tenant over one run."""

    tenant: str
    offered: int
    completed: int
    shed: int
    latency_p50: float
    latency_p95: float
    latency_p99: float
    mean_queue_wait: float
    slo_latency_s: float
    slo_attainment: float
    cost_usd: float
    #: Queries that started executing but errored out — distinct from
    #: ``shed`` (turned away at admission, never started).
    failed: int = 0
    #: Served queries that needed at least one retry or hedge.
    recovered: int = 0

    @property
    def cost_per_query(self) -> float:
        """Dollars per served query (see :func:`cost_per_query`)."""
        return cost_per_query(self.cost_usd, self.completed, self.offered)

    def row(self) -> list:
        """Table row used by the CLI and benchmark renderings."""
        cpq = self.cost_per_query
        return [self.tenant, self.offered, self.completed, self.shed,
                f"{self.latency_p50:.2f}", f"{self.latency_p95:.2f}",
                f"{self.latency_p99:.2f}", f"{self.mean_queue_wait:.2f}",
                f"{self.slo_attainment * 100:.1f}%",
                "inf" if math.isinf(cpq) else f"{cpq * 100:.3f}"]


#: Header matching :meth:`TenantReport.row`.
REPORT_HEADERS = ["Tenant", "Offered", "Done", "Shed", "p50 [s]",
                  "p95 [s]", "p99 [s]", "Wait [s]", "SLO", "¢/query"]


class ServingMetrics:
    """Accumulates per-tenant serving records during a run."""

    def __init__(self) -> None:
        self.offered: dict[str, int] = {}
        self.shed: dict[str, int] = {}
        self.completed: dict[str, list[CompletedQuery]] = {}
        self.failed: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def record_offered(self, tenant: str) -> None:
        """Count one query offered by ``tenant`` (before admission)."""
        self.offered[tenant] = self.offered.get(tenant, 0) + 1

    def record_shed(self, tenant: str) -> None:
        """Count one query turned away at admission."""
        self.shed[tenant] = self.shed.get(tenant, 0) + 1

    def record_completion(self, record: CompletedQuery) -> None:
        """File one served query under its tenant."""
        self.completed.setdefault(record.tenant, []).append(record)

    def record_failed(self, tenant: str) -> None:
        """Count one query that started executing but errored out.

        Failed queries count against SLO attainment like shed ones —
        but they are reported separately: shed is a deliberate admission
        decision, failure is an execution outcome.
        """
        self.failed[tenant] = self.failed.get(tenant, 0) + 1

    # -- views -------------------------------------------------------------

    def completed_count(self, tenant: str) -> int:
        """Served queries of one tenant."""
        return len(self.completed.get(tenant, []))

    def shed_count(self, tenant: str) -> int:
        """Shed queries of one tenant."""
        return self.shed.get(tenant, 0)

    def failed_count(self, tenant: str) -> int:
        """Failed (started but errored) queries of one tenant."""
        return self.failed.get(tenant, 0)

    def runtimes(self, tenant: str) -> list[float]:
        """Engine runtimes of a tenant's served queries, in finish order."""
        return [r.runtime for r in self.completed.get(tenant, [])]

    def tenant_report(self, tenant: str,
                      slo_latency_s: float = math.inf) -> TenantReport:
        """Reduce one tenant's records to a :class:`TenantReport`."""
        done = self.completed.get(tenant, [])
        offered = self.offered.get(tenant, 0)
        shed = self.shed_count(tenant)
        latencies = [r.latency for r in done]
        if latencies:
            pcts = percentiles(latencies, LATENCY_POINTS)
        else:
            pcts = {p: 0.0 for p in LATENCY_POINTS}
        within = sum(1 for lat in latencies if lat <= slo_latency_s)
        return TenantReport(
            tenant=tenant,
            offered=offered,
            completed=len(done),
            shed=shed,
            latency_p50=pcts[50.0],
            latency_p95=pcts[95.0],
            latency_p99=pcts[99.0],
            mean_queue_wait=(sum(r.queue_wait for r in done) / len(done)
                            if done else 0.0),
            slo_latency_s=slo_latency_s,
            slo_attainment=(within / offered) if offered else 1.0,
            cost_usd=sum(r.cost_usd for r in done),
            failed=self.failed_count(tenant),
            recovered=sum(1 for r in done if r.retries > 0 or r.hedges > 0))
