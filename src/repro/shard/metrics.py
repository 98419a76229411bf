"""Per-shard streaming metrics and the fleet-level roll-up.

A million-tenant replay cannot afford the serve layer's per-query
record keeping (:class:`~repro.serve.metrics.ServingMetrics` files a
``CompletedQuery`` per served query), so each gateway shard gets a
:class:`ShardMetrics`: counters plus a fixed-width log-bucketed latency
histogram, which the replay updates in place — O(1) memory per event,
deterministic percentiles.

:func:`roll_up` reduces the per-shard views to the fleet numbers
operators watch — aggregate p50/p99 latency, SLO attainment, shed and
recovered counts, cost — and, crucially, *reconciles* them: every
query a tenant ever offered must be accounted for as completed, shed,
failed, or still pending. Rebalancing and shard failure move requests
between shards; the conservation check is what proves none fell
through the cracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.telemetry.metrics import LatencyHistogram

__all__ = ["FleetReport", "ShardMetrics", "roll_up"]


class ShardMetrics:
    """Streaming serving metrics of one gateway shard.

    A :class:`~repro.serve.gateway.QueryGateway` records offers and
    sheds; the replay updates the completion fields itself. Only
    scalars and a histogram — no per-query, no per-tenant state.
    ``failed`` and ``recovered`` stay 0 in a replay (it neither fails
    nor retries a query); the report keeps them as keys.
    """

    def __init__(self, shard_id: str = "shard-0",
                 slo_latency_s: float = math.inf) -> None:
        self.shard_id = shard_id
        self.slo_latency_s = slo_latency_s
        self.offered = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.within_slo = 0
        self.recovered = 0
        self.cost_usd = 0.0
        self.queue_wait_sum = 0.0
        self.latency = LatencyHistogram()

    # -- the gateway's recording calls --------------------------------------

    def record_offered(self, tenant: str) -> None:
        self.offered += 1

    def record_shed(self, tenant: str) -> None:
        self.shed += 1

    # -- views -------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready per-shard reduction (stable keys)."""
        return {
            "shard": self.shard_id,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "recovered": self.recovered,
            "p50": self.latency.percentile(50.0),
            "p99": self.latency.percentile(99.0),
            "cost_usd": round(self.cost_usd, 9),
        }


@dataclass
class FleetReport:
    """The fleet-level roll-up of every shard's serving metrics."""

    shards: int
    offered: int
    completed: int
    shed: int
    failed: int
    recovered: int
    pending: int
    latency_p50: float
    latency_p99: float
    mean_queue_wait: float
    slo_attainment: float
    cost_usd: float
    per_shard: list[dict] = field(default_factory=list)

    @property
    def balanced(self) -> bool:
        """Conservation: every offered query is accounted for."""
        return self.offered == (self.completed + self.shed + self.failed
                                + self.pending)

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "recovered": self.recovered,
            "pending": self.pending,
            "balanced": self.balanced,
            "latency_p50": round(self.latency_p50, 9),
            "latency_p99": round(self.latency_p99, 9),
            "mean_queue_wait": round(self.mean_queue_wait, 9),
            "slo_attainment": round(self.slo_attainment, 9),
            "cost_usd": round(self.cost_usd, 9),
            "per_shard": self.per_shard,
        }


def roll_up(shard_metrics: list[ShardMetrics], pending: int,
            recovered: int) -> FleetReport:
    """Reduce per-shard metrics to a :class:`FleetReport`.

    ``pending`` is the backlog still queued across live gateways (zero
    after a drained run) — it closes the conservation equation mid-run.
    ``recovered`` counts the requests re-homed out of merged or failed
    shards; it is reported next to the shards' own recovered counts.
    """
    merged = LatencyHistogram()
    offered = completed = shed = failed = 0
    within = 0
    wait_sum = 0.0
    cost = 0.0
    for metrics in shard_metrics:
        merged.merge(metrics.latency)
        offered += metrics.offered
        completed += metrics.completed
        shed += metrics.shed
        failed += metrics.failed
        recovered += metrics.recovered
        within += metrics.within_slo
        wait_sum += metrics.queue_wait_sum
        cost += metrics.cost_usd
    return FleetReport(
        shards=len(shard_metrics),
        offered=offered,
        completed=completed,
        shed=shed,
        failed=failed,
        recovered=recovered,
        pending=pending,
        latency_p50=merged.percentile(50.0),
        latency_p99=merged.percentile(99.0),
        mean_queue_wait=wait_sum / completed if completed else 0.0,
        slo_attainment=within / offered if offered else 1.0,
        cost_usd=cost,
        per_shard=[metrics.summary() for metrics in shard_metrics])
