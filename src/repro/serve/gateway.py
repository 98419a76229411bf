"""Multi-tenant query gateway: submission, quotas, admission control.

The gateway is the front door of the serving layer. Tenants register
with a priority class, a fair-share weight, a per-tenant concurrency
quota, and an SLO; submissions are admitted into a per-tenant queue or
shed when the tenant (or the gateway as a whole) is over its backlog
bound. The scheduler drains the queues; the gateway never runs queries
itself.

Since the sharding fabric (:mod:`repro.shard`) arrived, a gateway is
one *shard* of a fleet: it carries a ``shard_id``, a directory
``epoch`` fence the router checks its cached routes against, and an
optional ``default_tenant`` template so a million-tenant workload can
materialize per-tenant state lazily. Every per-event
operation is O(1) in the number of tenants — backlog is tracked with
an incrementally maintained counter and an insertion-ordered backlog
index, never by walking all tenant queues.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.serve.metrics import QuerySample, ServingTally
from repro.telemetry import get_recorder


@dataclass(frozen=True)
class Tenant:
    """One traffic source with its serving contract.

    ``priority`` orders priority-class scheduling (lower is more
    urgent); ``weight`` sets the tenant's share under weighted fair
    scheduling; ``max_concurrent`` caps the tenant's in-flight queries
    (its concurrency quota); ``max_queue_depth`` bounds its backlog —
    submissions beyond it are shed at admission.
    """

    name: str
    priority: int = 1
    weight: float = 1.0
    max_concurrent: int = 4
    max_queue_depth: float = math.inf
    slo_latency_s: float = math.inf

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")


@dataclass
class QueryRequest:
    """One admitted query waiting for (or holding) an execution slot."""

    tenant: str
    plan: Any
    submitted_at: float
    seq: int
    priority: int
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Set by the shard router when this request was drained out of a
    #: merged or failed shard and re-homed. The observability plane's
    #: tail sampler always retains fault-touched traces.
    rescued: bool = False

    @property
    def fifo_key(self) -> tuple[float, int]:
        """Global arrival order (ties broken by submission sequence)."""
        return (self.submitted_at, self.seq)


class QueryGateway:
    """Accepts tenant submissions; queues or sheds them.

    Admission control is two-level: a submission is shed when its
    tenant's queue is at ``max_queue_depth``, or when the gateway-wide
    backlog has reached ``max_pending`` (overload protection for the
    shard as a whole). Admitted requests wait in per-tenant FIFO queues
    until a scheduler pops them.

    ``default_tenant`` (when set) serves as the contract for tenants
    that never called :meth:`register`: their queues are created on
    first submission and discarded when drained, so resident state is
    O(tenants with backlog), not O(tenants ever seen).
    """

    def __init__(self, env, metrics: Optional[ServingTally] = None,
                 max_pending: float = math.inf,
                 shard_id: str = "shard-0",
                 default_tenant: Optional[Tenant] = None) -> None:
        self.env = env
        #: A fleet shard's one tally, or ``None``: then each tenant gets
        #: its own in ``tallies`` (see :meth:`tally`). Shards pass one, so
        #: a drained lazy tenant leaves no state behind.
        self.metrics = metrics
        self.tallies: dict[str, ServingTally] = {}
        self.max_pending = max_pending
        self.shard_id = shard_id
        self.default_tenant = default_tenant
        #: Directory epoch fence. The shard router bumps this when the
        #: partition directory reassigns any of this shard's key ranges,
        #: and counts a route of another epoch that reaches this shard
        #: as a stale rejection (``ShardRouter.route_batch``).
        self.epoch = 0
        self.stale_rejections = 0
        self.tenants: dict[str, Tenant] = {}
        self.queues: dict[str, deque[QueryRequest]] = {}
        #: Queue entries across all tenants, maintained incrementally —
        #: never recomputed by walking the queues.
        self._pending = 0
        #: Tenants with a non-empty queue, each once, in round-robin
        #: order: the head is the next to serve. A deque, not a dict
        #: used as a ring, so reading and rotating the head is O(1);
        #: a dict's ``next(iter(...))`` walks every deleted entry
        #: before the head.
        self._backlog: deque[str] = deque()
        self._seq = itertools.count()
        #: Scheduler hook, called after every successful admission.
        self.on_submit: Optional[Callable[[], None]] = None
        # Instruments are looked up at their first write, so a gateway
        # whose owner turns telemetry off registers none.
        self._telemetry = get_recorder()

    # -- tenancy -----------------------------------------------------------

    def register(self, tenant: Tenant) -> Tenant:
        """Register a tenant (idempotent for the same name)."""
        self.tenants[tenant.name] = tenant
        self.queues.setdefault(tenant.name, deque())
        return tenant

    def tenant(self, name: str) -> Tenant:
        """Look up a registered tenant (or the lazy default template)."""
        tenant = self.tenants.get(name)
        if tenant is not None:
            return tenant
        if self.default_tenant is not None:
            return self.default_tenant
        raise KeyError(f"tenant {name!r} is not registered")

    def tally(self, name: str) -> ServingTally:
        """The tally that counts tenant ``name``'s queries."""
        if self.metrics is not None:
            return self.metrics
        tally = self.tallies.get(name)
        if tally is None:
            tally = self.tallies[name] = ServingTally(
                self.tenant(name).slo_latency_s, QuerySample())
        return tally

    # -- admission ---------------------------------------------------------

    def submit(self, tenant_name: str,
               plan: Any) -> Optional[QueryRequest]:
        """Offer one query; returns the queued request, or ``None`` if shed."""
        tenant = self.tenant(tenant_name)
        tally = self.tally(tenant_name)
        tally.offered += 1
        queue = self.queues.get(tenant_name)
        depth = len(queue) if queue is not None else 0
        if depth >= tenant.max_queue_depth \
                or self._pending >= self.max_pending:
            tally.shed += 1
            if self._telemetry is not None:
                self._telemetry.counter("gateway.shed").inc()
                self._telemetry.event(
                    self.env.now, "gateway.shed", category="serving",
                    tenant=tenant_name, queue_depth=depth,
                    total_pending=self._pending)
            return None
        request = QueryRequest(
            tenant=tenant_name, plan=plan, submitted_at=self.env.now,
            seq=next(self._seq), priority=tenant.priority)
        self._enqueue(request)
        if self.on_submit is not None:
            self.on_submit()
        return request

    def adopt(self, request: QueryRequest) -> QueryRequest:
        """Enqueue a request rescued from another shard, unconditionally.

        Used by the rebalancer when a shard is merged away or fails:
        the request was already offered (and admitted) once, so it is
        not re-counted and never shed — recovery must not lose admitted
        work. The request keeps its original submission timestamp, so
        end-to-end latency still covers the time spent on the dead
        shard's queue.
        """
        self._enqueue(request)
        if self.on_submit is not None:
            self.on_submit()
        return request

    def _enqueue(self, request: QueryRequest) -> None:
        queue = self.queues.get(request.tenant)
        if queue is None:
            queue = self.queues[request.tenant] = deque()
        if not queue:
            self._backlog.append(request.tenant)
        queue.append(request)
        self._pending += 1
        if self._telemetry is not None:
            self._note_depth()

    def _note_depth(self) -> None:
        depth = float(self._pending)
        recorder = self._telemetry
        recorder.gauge("gateway.queue_depth").set(depth)
        recorder.timeseries("gateway.queue_depth", min_dt=0.001).sample(
            self.env.now, depth)

    # -- queue access (scheduler side) -------------------------------------

    @property
    def total_pending(self) -> int:
        """Backlog across all tenants (maintained incrementally; O(1))."""
        return self._pending

    def backlogged(self) -> list[str]:
        """Tenants with a non-empty queue, in first-backlogged order.

        The scheduler iterates this instead of every registered tenant,
        so dispatch work scales with the backlog, not the tenant count.
        """
        return list(self._backlog)

    def head(self, tenant_name: str) -> Optional[QueryRequest]:
        """Oldest queued request of a tenant, without removing it."""
        queue = self.queues.get(tenant_name)
        return queue[0] if queue else None

    def pop(self, tenant_name: str) -> QueryRequest:
        """Remove and return the oldest queued request of a tenant."""
        queue = self.queues[tenant_name]
        request = queue.popleft()
        self._pending -= 1
        if not queue:
            backlog = self._backlog
            if backlog[0] == tenant_name:
                backlog.popleft()
            else:  # a policy picked a tenant off the head
                backlog.remove(tenant_name)
            if tenant_name not in self.tenants:
                # Lazily materialized tenant drained: drop its queue so
                # resident state stays O(tenants with backlog).
                del self.queues[tenant_name]
        if self._telemetry is not None:
            self._note_depth()
        return request

    def drain_backlog(self) -> list[QueryRequest]:
        """Remove and return every queued request, in arrival order.

        Used when this shard is merged away or fails: the rebalancer
        re-homes the returned requests on the shards that took over the
        key ranges. Cost is O(backlog), independent of tenant count.
        """
        orphans: list[QueryRequest] = []
        while self._backlog:
            name = self._backlog[0]
            queue = self.queues[name]
            while queue:
                orphans.append(self.pop(name))
        orphans.sort(key=lambda request: request.fifo_key)
        return orphans
