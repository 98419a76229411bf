"""Serving metrics: one streaming tally per tenant or per shard.

A :class:`ServingTally` counts the queries one traffic owner offered
to a gateway — shed, completed, failed, recovered, within the SLO —
with their cost, queue wait and latency. DES serving keeps one per
tenant, the million-tenant replay one per gateway shard; the same
views reduce both: a tally is a tenant's report row, and
:func:`roll_up` merges the shards' tallies into the fleet report. A
shed or failed query counts against SLO attainment: traffic turned
away is traffic not served within its deadline.

Only the latency store differs, and the tally's owner chooses it: the
replay records into a fixed-width :class:`LatencyHistogram` (O(1)
memory per event, deterministic percentiles that merge across shards),
DES serving into a :class:`QuerySample` that keeps every query.
"""

from __future__ import annotations

import math

from repro.analysis.stats import percentiles
from repro.telemetry.metrics import LatencyHistogram

#: The tally fields a fleet roll-up sums over its shards.
_SUMMED = ("offered", "shed", "completed", "failed", "recovered",
           "within_slo", "cost_usd", "queue_wait_sum")


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


class QuerySample:
    """DES serving's latency store: every served query, in finish order.

    ``latencies`` are end to end (queue wait included); ``runtimes``
    are what the engine reported, without queue wait or invocation
    overhead.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.runtimes: list[float] = []

    def percentile(self, p: float) -> float:
        if not self.latencies:
            return 0.0
        return percentiles(self.latencies, (p,))[p]


class ServingTally:
    """Streaming serving counters of one DES tenant or one replay shard.

    The gateway counts offers and sheds; the DES scheduler or the
    replay's lane counts the rest by writing the fields directly.
    ``latency`` is a :class:`LatencyHistogram` or a
    :class:`QuerySample`, as its owner chooses.
    """

    def __init__(self, slo_latency_s: float, latency) -> None:
        self.slo_latency_s = slo_latency_s
        self.latency = latency
        self.offered = 0
        self.shed = 0
        self.completed = 0
        #: Queries that started executing but errored out — distinct
        #: from ``shed`` (turned away at admission, never started).
        self.failed = 0
        #: Served queries that needed at least one retry or hedge.
        self.recovered = 0
        self.within_slo = 0
        self.cost_usd = 0.0
        self.queue_wait_sum = 0.0

    @property
    def latency_p50(self) -> float:
        return self.latency.percentile(50.0)

    @property
    def latency_p95(self) -> float:
        return self.latency.percentile(95.0)

    @property
    def latency_p99(self) -> float:
        return self.latency.percentile(99.0)

    @property
    def mean_queue_wait(self) -> float:
        return self.queue_wait_sum / self.completed if self.completed \
            else 0.0

    @property
    def slo_attainment(self) -> float:
        return self.within_slo / self.offered if self.offered else 1.0

    @property
    def cost_per_query(self) -> float:
        """Dollars per served query (see :func:`cost_per_query`)."""
        return cost_per_query(self.cost_usd, self.completed, self.offered)

    def row(self, tenant: str) -> list:
        """Table row used by the CLI and benchmark renderings."""
        cpq = self.cost_per_query
        return [tenant, self.offered, self.completed, self.shed,
                f"{self.latency_p50:.2f}", f"{self.latency_p95:.2f}",
                f"{self.latency_p99:.2f}", f"{self.mean_queue_wait:.2f}",
                f"{self.slo_attainment * 100:.1f}%",
                "inf" if math.isinf(cpq) else f"{cpq * 100:.3f}"]


#: Header matching :meth:`ServingTally.row`.
REPORT_HEADERS = ["Tenant", "Offered", "Done", "Shed", "p50 [s]",
                  "p95 [s]", "p99 [s]", "Wait [s]", "SLO", "¢/query"]


def roll_up(shards: dict[str, ServingTally], pending: int,
            recovered: int) -> dict:
    """The fleet report of per-shard histogram tallies (stable keys).

    ``pending`` is the backlog still queued across live gateways (zero
    after a drained run) — it closes the conservation equation
    ``offered = completed + shed + failed + pending`` mid-run, and
    ``balanced`` states it. ``recovered`` counts the requests re-homed
    out of merged or failed shards; it is reported next to the shards'
    own recovered counts.
    """
    fleet = ServingTally(math.inf, LatencyHistogram())
    fleet.recovered = recovered
    for tally in shards.values():
        for name in _SUMMED:
            setattr(fleet, name, getattr(fleet, name) + getattr(tally, name))
        fleet.latency.merge(tally.latency)
    return {
        "shards": len(shards),
        "offered": fleet.offered,
        "completed": fleet.completed,
        "shed": fleet.shed,
        "failed": fleet.failed,
        "recovered": fleet.recovered,
        "pending": pending,
        "balanced": fleet.offered == (fleet.completed + fleet.shed
                                      + fleet.failed + pending),
        "latency_p50": round(fleet.latency_p50, 9),
        "latency_p99": round(fleet.latency_p99, 9),
        "mean_queue_wait": round(fleet.mean_queue_wait, 9),
        "slo_attainment": round(fleet.slo_attainment, 9),
        "cost_usd": round(fleet.cost_usd, 9),
        "per_shard": [{
            "shard": shard,
            "offered": tally.offered,
            "completed": tally.completed,
            "shed": tally.shed,
            "failed": tally.failed,
            "recovered": tally.recovered,
            "p50": tally.latency_p50,
            "p99": tally.latency_p99,
            "cost_usd": round(tally.cost_usd, 9),
        } for shard, tally in shards.items()],
    }
