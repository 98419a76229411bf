"""The serving scheduler: dispatch policies and concurrency governance.

A :class:`QueryScheduler` runs as a simulation process. Whenever a
query arrives or finishes it tries to dispatch: a pluggable policy
picks the next tenant among those that are *eligible* (non-empty queue,
in-flight below the tenant's concurrency quota), and a global
:class:`ConcurrencyGovernor` bounds how many queries run at once so the
aggregate worker fan-out stays inside the account-level Lambda
concurrency quota modeled by :class:`~repro.faas.platform.LambdaPlatform`.

Three policies are provided:

* **FIFO** — global arrival order, tenant-blind;
* **priority** — strict priority classes (lower class first), FIFO
  within a class;
* **fair** — weighted fair sharing: each dispatch charges the tenant
  ``1 / weight`` units of virtual service; the tenant with the least
  normalized service goes next, so a heavy tenant's backlog cannot
  starve a light high-weight tenant.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.serve.gateway import QueryGateway, QueryRequest, Tenant


class SchedulingPolicy:
    """Chooses which eligible tenant's head-of-queue runs next."""

    name = "base"

    def select(self, gateway: QueryGateway,
               eligible: list[str]) -> Optional[str]:
        """Return the tenant to dispatch from, or ``None`` to idle."""
        raise NotImplementedError

    def note_dispatch(self, gateway: QueryGateway,
                      request: QueryRequest) -> None:
        """Policy hook invoked after a request is dispatched."""


class FifoPolicy(SchedulingPolicy):
    """Global first-come-first-served across all tenants."""

    name = "fifo"

    def select(self, gateway, eligible):
        heads = [gateway.head(name) for name in eligible]
        if not heads:
            return None
        return min(heads, key=lambda req: req.fifo_key).tenant


class PriorityPolicy(SchedulingPolicy):
    """Strict priority classes; FIFO within a class."""

    name = "priority"

    def select(self, gateway, eligible):
        heads = [gateway.head(name) for name in eligible]
        if not heads:
            return None
        return min(heads,
                   key=lambda req: (req.priority,) + req.fifo_key).tenant


class FairSharePolicy(SchedulingPolicy):
    """Weighted fair sharing over dispatch counts.

    Tracks per-tenant virtual service (dispatches divided by weight)
    and always serves the backlogged tenant with the least of it —
    start-time fair queueing with unit-sized jobs. New or long-idle
    tenants join at the current minimum so they cannot claim an
    unbounded burst of stored credit.
    """

    name = "fair"

    def __init__(self) -> None:
        self._service: dict[str, float] = {}

    def select(self, gateway, eligible):
        if not eligible:
            return None
        floor = min(self._service.values()) if self._service else 0.0
        for name in eligible:
            self._service.setdefault(name, floor)
        return min(eligible,
                   key=lambda name: (self._service[name],
                                     gateway.head(name).fifo_key))

    def note_dispatch(self, gateway, request):
        weight = gateway.tenant(request.tenant).weight
        floor = min(self._service.values()) if self._service else 0.0
        current = self._service.get(request.tenant, floor)
        self._service[request.tenant] = current + 1.0 / weight


POLICIES = {
    "fifo": FifoPolicy,
    "priority": PriorityPolicy,
    "fair": FairSharePolicy,
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by its registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; known: "
                       f"{sorted(POLICIES)}") from None


class ConcurrencyGovernor:
    """Caps concurrently running queries for the whole account.

    Each query fans out to roughly ``fragments_per_query`` concurrent
    function invocations at its widest stage, so admitting more than
    ``account_quota / fragments_per_query`` queries would push the
    platform's admission service into throttling (the 1,000-default
    quota of Section 2.1). The governor keeps query admission ahead of
    that cliff instead of letting every query degrade.
    """

    def __init__(self, max_queries: Optional[int] = None) -> None:
        if max_queries is not None and max_queries <= 0:
            raise ValueError("max_queries must be positive")
        self.max_queries = max_queries
        self.in_flight = 0
        self.peak_in_flight = 0

    @classmethod
    def for_account(cls, account_quota: int,
                    fragments_per_query: int) -> "ConcurrencyGovernor":
        """Derive the query cap from the account quota and plan width."""
        if account_quota <= 0 or fragments_per_query <= 0:
            raise ValueError("quota and fragment width must be positive")
        return cls(max(1, account_quota // fragments_per_query))

    def has_slot(self) -> bool:
        """Whether one more query may start now."""
        return (self.max_queries is None
                or self.in_flight < self.max_queries)

    def acquire(self) -> None:
        """Take one query slot (caller must have checked :meth:`has_slot`)."""
        if not self.has_slot():
            raise RuntimeError("governor has no free slot")
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def release(self) -> None:
        """Return one query slot."""
        if self.in_flight <= 0:
            raise RuntimeError("release without acquire")
        self.in_flight -= 1


class QueryScheduler:
    """Drains the gateway onto an engine under policy and governor."""

    def __init__(self, env, engine, gateway: QueryGateway,
                 policy: SchedulingPolicy,
                 governor: Optional[ConcurrencyGovernor] = None) -> None:
        self.env = env
        self.engine = engine
        self.gateway = gateway
        self.policy = policy
        self.governor = governor if governor is not None \
            else ConcurrencyGovernor()
        self.inflight: dict[str, int] = {}
        self.dispatched = 0
        self.process = None
        self._wake = None
        self._drain_waiters: list = []
        gateway.on_submit = self._notify

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Start the scheduler loop; returns its process."""
        if self.process is None:
            self.process = self.env.process(self._loop(), name="scheduler")
        return self.process

    @property
    def total_inflight(self) -> int:
        """Queries currently executing."""
        return sum(self.inflight.values())

    def drained(self):
        """Event that fires when no query is queued or running."""
        event = self.env.event()
        if self.gateway.total_pending == 0 and self.total_inflight == 0:
            event.succeed()
        else:
            self._drain_waiters.append(event)
        return event

    # -- dispatch ----------------------------------------------------------

    def _eligible(self) -> list[str]:
        # Scan only tenants with backlog (insertion-ordered), so one
        # dispatch round costs O(backlogged tenants) — not O(all
        # registered tenants). The eligible *set* is unchanged: a
        # tenant is dispatchable iff it has queued work and headroom
        # under its concurrency quota.
        eligible = []
        for name in self.gateway.backlogged():
            tenant = self.gateway.tenant(name)
            if self.inflight.get(name, 0) < tenant.max_concurrent:
                eligible.append(name)
        return eligible

    def _loop(self):
        while True:
            while self.governor.has_slot():
                choice = self.policy.select(self.gateway, self._eligible())
                if choice is None:
                    break
                request = self.gateway.pop(choice)
                self.policy.note_dispatch(self.gateway, request)
                self.governor.acquire()
                self.inflight[choice] = self.inflight.get(choice, 0) + 1
                self.dispatched += 1
                self.env.process(self._serve_one(request),
                                 name=f"serve-{choice}-{request.seq}")
            self._wake = self.env.event()
            yield self._wake

    def _notify(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _serve_one(self, request: QueryRequest):
        request.started_at = self.env.now
        failed = False
        try:
            result = yield from self.engine.run_query(request.plan)
        except Exception:  # noqa: BLE001 - counted, serving continues
            # An execution failure (e.g. a fragment that exhausted its
            # retries under faults) must not take the scheduler down:
            # record it and keep serving. Failed is distinct from shed —
            # this query was admitted and started.
            failed = True
            barriers = getattr(self.engine, "barriers", None)
            if barriers is not None:
                barriers.clear(getattr(request.plan, "query_id", "?"))
        finally:
            request.finished_at = self.env.now
            self.inflight[request.tenant] -= 1
            self.governor.release()
            self._notify()
            if (self.gateway.total_pending == 0
                    and self.total_inflight == 0):
                waiters, self._drain_waiters = self._drain_waiters, []
                for event in waiters:
                    event.succeed()
        tally = self.gateway.tally(request.tenant)
        if failed:
            tally.failed += 1
            return
        latency = request.finished_at - request.submitted_at
        tally.completed += 1
        tally.latency.latencies.append(latency)
        tally.latency.runtimes.append(getattr(
            result, "runtime", request.finished_at - request.started_at))
        tally.queue_wait_sum += request.started_at - request.submitted_at
        tally.cost_usd += getattr(result, "cost_cents", 0.0) / 100.0
        if latency <= tally.slo_latency_s:
            tally.within_slo += 1
        if getattr(result, "retries", 0) > 0 \
                or getattr(result, "hedges", 0) > 0:
            tally.recovered += 1


def serve_arrivals(sim, engine, arrivals: list[tuple[Tenant, Any, list]],
                   policy: SchedulingPolicy, governor: ConcurrencyGovernor,
                   window_s: float, warm) -> QueryGateway:
    """Serve timed submissions on ``sim`` through one gateway; return it.

    Each ``(tenant, plan, offsets)`` of ``arrivals`` registers the
    tenant and submits ``plan`` at every offset. The run drains every
    admitted query, waits for ``warm`` (a process generator, or
    ``None``), and lasts at least ``window_s``, so billing covers the
    whole window even when the last query ends early. The gateway's
    tallies hold the outcome.
    """
    env = sim.env
    gateway = QueryGateway(env)
    for tenant, _, _ in arrivals:
        gateway.register(tenant)
    scheduler = QueryScheduler(env, engine, gateway, policy, governor)

    def submit_at(name, plan, offset):
        yield env.timeout(offset)
        gateway.submit(name, plan)

    def scenario():
        scheduler.start()
        warm_process = env.process(warm) if warm is not None else None
        submissions = [env.process(submit_at(tenant.name, plan, offset))
                       for tenant, plan, offsets in arrivals
                       for offset in offsets]
        for process in submissions:
            yield process
        yield scheduler.drained()
        if warm_process is not None:
            yield warm_process
        if env.now < window_s:
            yield env.timeout(window_s - env.now)

    sim.run(scenario())
    return gateway
