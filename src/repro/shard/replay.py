"""Deterministic million-tenant trace replay over the sharded fabric.

The full discrete-event kernel prices every arrival at a heap push plus
a process step — fine for thousands of queries, hopeless for millions.
The replay keeps the *admission* path fully real (router, route cache,
epoch fences, gateway queues, shed decisions, rebalancer, failures) and
replaces only query *execution* with an analytic slot model: each shard
is ``slots`` parallel servers; a heap of slot-free times is drained as
the trace clock advances, and each dispatch's completion time is known
in closed form. Everything runs on a :class:`ManualClock`, so the whole
run is a single pass over the trace — O(events) work, O(active) memory.

Between control ticks no directory mutation, failure, rebalance or SLO
scrape can happen, so each shard's drain is independent by
construction. :func:`run_replay` therefore routes a whole inter-tick
slice at once, as arrays over the trace's dense tenant ids
(:meth:`ShardRouter.route_batch`), and replays it shard by shard, which
is what makes the uncontended case a closed form (:func:`_run_fast`).
:func:`run_replay_reference` is the same run one event at a time on a
name-keyed router — the oracle the kernel's digest is pinned against.

Two instruments make the complexity claims checkable rather than
asserted:

* :class:`ScanGuard` wraps every gateway's tenant-keyed dicts and
  counts *full iterations* (``keys``/``values``/``items``/``iter``).
  The replay reports ``full_scans``; the ledger pins it to zero —
  the per-event cost provably never walks a tenant-sized structure.
* The result digest is :func:`~repro.telemetry.canonical_json` hashed
  over the fleet roll-up, the rebalance history, and every counter —
  two same-seed runs must be byte-identical.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, replace
from itertools import repeat
from operator import itemgetter

from repro.serve.gateway import QueryGateway, Tenant
from repro.serve.metrics import CompletedQuery
from repro.shard.rebalance import Rebalancer
from repro.shard.router import FENCED, OFFER, RETRY, ShardRouter
from repro.sim.rng import RandomStreams
from repro.telemetry import canonical_json, get_recorder

# The histogram bucket constants, imported so the fast lane can inline
# ``LatencyHistogram.record`` (same expressions, same order — the
# digest pins the equivalence).
from repro.telemetry.metrics import _BUCKETS, _BUCKETS_PER_DECADE, _LOG_MIN
from repro.workloads.traffic import zipf_trace

#: Cost model of one served query: the paper's Lambda price point
#: (USD per GB-second) at 2 GB, applied to analytic service time.
_USD_PER_SLOT_SECOND = 2.0 * 0.0000166667

_TOP_BUCKET = _BUCKETS + 1

#: Trace tenant ``id`` is named ``f"t{id}"``: the ids are the router's
#: dense key space, and a name is only formatted for a gateway call.
_TENANT_PREFIX = "t"

#: Route and replay at most this many events at a time even between
#: ticks. Slice boundaries are transparent — ops carry their own
#: timestamps and shards keep no cross-slice cursor — so this only
#: bounds the memory of the op streams.
_FLUSH_EVERY = 131_072


class ManualClock:
    """A bare virtual clock: the only ``env`` surface the replay needs.

    Gateways read ``env.now`` for timestamps; nothing here schedules —
    the replay advances ``now`` itself, one trace arrival at a time.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class ScanGuard(dict):
    """A dict that counts full iterations over itself.

    Keyed lookups (``get``/``[]``/``in``/``len``) stay free; anything
    that walks the whole mapping bumps :attr:`full_scans`. Wrapped
    around tenant-keyed gateway state, a zero count after a
    million-event replay is a *proof* the hot path is O(1) in tenant
    count — not a benchmark that happens to be fast.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.full_scans = 0

    def __iter__(self):
        self.full_scans += 1
        return super().__iter__()

    def keys(self):
        self.full_scans += 1
        return super().keys()

    def values(self):
        self.full_scans += 1
        return super().values()

    def items(self):
        self.full_scans += 1
        return super().items()

    def copy(self):
        """Counted: copying *is* a full scan — exactly once.

        Whether ``dict.copy`` on a subclass dispatches through the
        Python-level ``keys()`` override is a CPython implementation
        detail: overriding ``__iter__`` changes ``tp_iter``, which
        defeats ``PyDict_Merge``'s exact-dict fast path and sends the
        walk through ``keys()`` (counted) on current CPython — but
        that is nowhere contracted. Bumping only when the parent copy
        did not already count keeps ``sg.copy()`` at exactly one scan
        on any dispatch behavior. Walks that read the key table
        directly at the C level (``repr``, ``==``) remain invisible —
        the regression test pins the current census of both groups.
        """
        before = self.full_scans
        data = super().copy()
        self.full_scans = before + 1
        return data


@dataclass(frozen=True)
class ReplayConfig:
    """One sharded-serving replay, fully determined by its fields."""

    tenants: int = 1_000_000
    events: int = 1_500_000
    window_s: float = 3_600.0
    seed: int = 7
    shards: int = 4
    slots_per_shard: int = 16
    max_pending_per_shard: int = 4_096
    tenant_queue_depth: int = 32
    zipf_s: float = 1.3
    mean_service_s: float = 0.2
    slo_latency_s: float = 2.0
    control_interval_s: float = 60.0
    hot_factor: float = 1.15
    cold_factor: float = 0.55
    max_shards: int = 12
    #: Virtual times at which a shard failure is injected (the
    #: currently most-backlogged shard dies; its queue must be
    #: recovered, not lost).
    fail_at: tuple = ()
    #: Optional :mod:`repro.chaos` plan name; its ``shard_failure``
    #: specs are polled per live shard at every control tick.
    fault_plan: str = ""

    def smoke(self) -> "ReplayConfig":
        """The CI-sized variant: >=100k tenants, truncated trace."""
        return replace(self, tenants=120_000, events=180_000,
                       window_s=600.0, fail_at=(150.0,),
                       fault_plan="shard-failure")


@dataclass
class ReplayResult:
    """The replay's outcome: the roll-up, the history, the proof bits."""

    report: dict
    rebalances: list[dict]
    distinct_tenants: int
    events: int
    shards_final: int
    submits: int
    stale_retries: int
    migrated: int
    recovered: int
    full_scans: int
    failures_injected: int

    def to_dict(self) -> dict:
        return {
            "report": self.report,
            "rebalances": self.rebalances,
            "distinct_tenants": self.distinct_tenants,
            "events": self.events,
            "shards_final": self.shards_final,
            "submits": self.submits,
            "stale_retries": self.stale_retries,
            "migrated": self.migrated,
            "recovered": self.recovered,
            "full_scans": self.full_scans,
            "failures_injected": self.failures_injected,
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of the full outcome."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")).hexdigest()


class _SlotBank:
    """Analytic execution model of one shard: ``slots`` parallel servers."""

    __slots__ = ("slots", "busy")

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self.busy: list[float] = []  # heap of slot-free times


def _next_request(gateway: QueryGateway):
    """Pop the next request: round-robin across backlogged tenants.

    FIFO within a tenant; tenants take turns in first-backlogged
    order. O(1) per call — one dict-head read, one deque pop, and a
    constant-cost rotation of the backlog index.
    """
    backlog = gateway._backlog
    if not backlog:
        return None
    name = next(iter(backlog))
    request = gateway.pop(name)
    if name in backlog:  # still backlogged: rotate to the back
        del backlog[name]
        backlog[name] = None
    return request


# Knuth's multiplicative hash constant, for the observer interest
# filter's deterministic request-id slice (shared spec with
# ``repro.obs.sampler.baseline_keep`` — kept as a literal so the shard
# layer stays import-free of obs).
_SAMPLE_HASH_MULT = 2654435761

#: Sentinel slow-threshold: every latency compares >= -inf, so an
#: observer without an interest spec sees every completion.
_ALWAYS = float("-inf")


def _complete(metrics, request, start: float, shard: str = "",
              on_completion=None, slow_s: float = _ALWAYS,
              salt: int = 0, cut: int = 0) -> float:
    finish = start + request.plan
    metrics.record_completion(CompletedQuery(
        tenant=request.tenant, query_id=f"q{request.seq}",
        submitted_at=request.submitted_at, started_at=start,
        finished_at=finish, runtime=request.plan,
        cost_usd=request.plan * _USD_PER_SLOT_SECOND,
        retries=0, hedges=0))
    if on_completion is not None:
        # Interest pre-filter (see run_replay): three scalar checks in
        # place of a Python call per served request. With the default
        # sentinel bounds every completion passes.
        if (finish - request.submitted_at >= slow_s or request.rescued
                or ((request.seq * _SAMPLE_HASH_MULT + salt)
                    & 0xFFFFFFFF) < cut):
            on_completion(finish, shard, request)
    return finish


def _advance(bank: _SlotBank, gateway: QueryGateway, now: float,
             on_completion=None, slow_s: float = _ALWAYS,
             salt: int = 0, cut: int = 0) -> None:
    """Drain one shard's slots up to virtual time ``now``.

    ``on_completion`` is the observer's pre-bound completion hook (not
    the observer itself) and ``slow_s``/``salt``/``cut`` its unpacked
    interest spec: both are hoisted out of the loop at the call sites
    because this is the replay's per-event hot path.
    """
    busy = bank.busy
    shard = gateway.shard_id
    metrics = gateway.metrics
    while busy and busy[0] <= now:
        freed = heapq.heappop(busy)
        request = _next_request(gateway)
        if request is None:
            continue
        start = freed if freed >= request.submitted_at \
            else request.submitted_at
        heapq.heappush(busy, _complete(metrics, request, start, shard,
                                       on_completion, slow_s, salt, cut))
    while len(busy) < bank.slots:
        request = _next_request(gateway)
        if request is None:
            break
        heapq.heappush(busy, _complete(metrics, request, now, shard,
                                       on_completion, slow_s, salt, cut))


def _quiesce(bank: _SlotBank, gateway: QueryGateway, horizon: float,
             step: float, on_completion=None, slow_s: float = _ALWAYS,
             salt: int = 0, cut: int = 0) -> None:
    """Drain one shard past its last completion (end of trace)."""
    while bank.busy or gateway.total_pending:
        if bank.busy:
            horizon = max(horizon, bank.busy[0])
        _advance(bank, gateway, horizon, on_completion, slow_s, salt, cut)
        horizon += step


def _distinct(ids) -> int:
    """Distinct tenant ids in the trace, without a million-entry set."""
    if len(ids) == 0:
        return 0
    ordered = ids.copy()
    ordered.sort()
    return 1 + int((ordered[1:] != ordered[:-1]).sum())


class _Fabric:
    """What the kernel and its oracle share: all but the event loop.

    The trace, the clock, the real :class:`ShardRouter` with its
    :class:`ScanGuard`-wrapped gateways and their slot banks, the
    rebalancer, the chaos injector, the observer's unpacked completion
    hook, the control tick and the final roll-up. ``keyed`` builds the
    router over the trace's tenant ids (the kernel); without it the
    router caches routes by name (the oracle).
    """

    def __init__(self, config: ReplayConfig, observer,
                 keyed: bool = False) -> None:
        self.config = config
        self.observer = observer
        streams = RandomStreams(config.seed)
        self.times, self.ids = zipf_trace(
            streams.stream("shard.trace"), config.tenants, config.events,
            config.window_s, s=config.zipf_s)
        self.services = streams.stream("shard.service").exponential(
            config.mean_service_s, size=config.events)

        self.clock = ManualClock()
        #: Every ScanGuard ever created, retired gateways included —
        #: the run's ``full_scans`` proof covers dead shards too.
        self.guards: list[ScanGuard] = []
        #: Slot banks by shard id, made with the gateways. Shard ids
        #: are never reused, so a retired shard's bank is just unread.
        self.banks: dict[str, _SlotBank] = {}
        guards, banks, slots = self.guards, self.banks, config.slots_per_shard

        # Closes over the lists, not the fabric: a factory bound to
        # ``self`` would tie fabric and router into a cycle, and a
        # finished replay's trace arrays would wait for the collector.
        def guarded_gateway(env, **kwargs) -> QueryGateway:
            gateway = QueryGateway(env, **kwargs)
            gateway.queues = ScanGuard(gateway.queues)
            gateway.tenants = ScanGuard(gateway.tenants)
            guards.append(gateway.queues)
            guards.append(gateway.tenants)
            banks[gateway.shard_id] = _SlotBank(slots)
            return gateway

        self.router = ShardRouter(
            self.clock, shards=config.shards,
            max_pending=config.max_pending_per_shard,
            default_tenant=Tenant(
                name="__default__",
                max_queue_depth=config.tenant_queue_depth,
                slo_latency_s=config.slo_latency_s),
            slo_latency_s=config.slo_latency_s,
            gateway_factory=guarded_gateway,
            key_space=(_TENANT_PREFIX, config.tenants) if keyed else None)
        self.rebalancer = Rebalancer(
            self.router, seed=config.seed, hot_factor=config.hot_factor,
            cold_factor=config.cold_factor, min_shards=1,
            max_shards=config.max_shards)
        self.injector = None
        if config.fault_plan:
            from repro.chaos.injector import FaultInjector
            from repro.chaos.plan import get_plan
            self.injector = FaultInjector(get_plan(config.fault_plan),
                                          RandomStreams(config.seed))
            if observer is not None:
                self.injector.observer = observer

        # The completion hook, pre-bound and with its interest spec
        # unpacked: it fires once per served request, the other
        # observer hooks only at control cadence.
        self.hook: tuple = (None, _ALWAYS, 0, 0)
        if observer is not None:
            interest = getattr(observer, "completion_interest", None)
            self.hook = (observer.on_completion,
                         *(interest or (_ALWAYS, 0, 0)))
        self.pending_failures = sorted(config.fail_at)
        self.failures = 0
        self.next_control = config.control_interval_s

    def _kill(self, victim: str) -> None:
        orphans = self.router.fail_shard(victim)
        self.failures += 1
        if self.observer is not None:
            self.observer.on_shard_failure(self.clock.now, victim, orphans)

    def control_tick(self) -> None:
        """Failures, drain, rebalance and observer scrape at one tick."""
        at = self.clock.now = self.next_control
        router = self.router
        gateways = router.gateways
        # Failures fire on the un-drained state: whatever is still
        # queued on the victim at the instant it dies is exactly the
        # work that must be recovered, not completed.
        while self.pending_failures and self.pending_failures[0] <= at:
            self.pending_failures.pop(0)
            if len(gateways) > 1:
                self._kill(max(
                    router.shards(),
                    key=lambda shard: gateways[shard].total_pending))
        if self.injector is not None:
            for shard in router.shards():
                if len(gateways) > 1 and self.injector.on_shard(shard, at):
                    self._kill(shard)
        for shard in router.shards():
            _advance(self.banks[shard], gateways[shard], at, *self.hook)
        self.rebalancer.step(at)
        if self.observer is not None:
            self.observer.on_control_tick(at, router)
        self.next_control += self.config.control_interval_s

    def finish(self) -> ReplayResult:
        """Drain every shard to quiescence and roll the fleet up."""
        config = self.config
        router = self.router
        self.clock.now = config.window_s
        for shard in router.shards():
            _quiesce(self.banks[shard], router.gateways[shard],
                     config.window_s, config.mean_service_s, *self.hook)
        if self.observer is not None:
            self.observer.on_end(config.window_s, router)
        return ReplayResult(
            report=router.roll_up().to_dict(),
            rebalances=self.rebalancer.history(),
            distinct_tenants=_distinct(self.ids),
            events=config.events,
            shards_final=len(router.gateways),
            submits=router.submits,
            stale_retries=router.stale_retries,
            migrated=router.migrated,
            recovered=router.fleet.recovered_requests,
            full_scans=sum(guard.full_scans for guard in self.guards),
            failures_injected=self.failures)


def run_replay(config: ReplayConfig, observer=None) -> ReplayResult:
    """Replay a Zipf trace through the sharded fabric, deterministically.

    Between control ticks the directory cannot change, so the trace is
    cut at every tick (and every ``_FLUSH_EVERY`` events): the router,
    built over the trace's tenant ids as its key space, takes each
    slice as numpy views (:meth:`ShardRouter.route_batch`) and returns
    per-shard op columns, and each shard then replays its stream on
    its own — slot bank advanced to the arrival, query offered to the
    gateway, idle slots pulling from the queues. Every
    ``control_interval_s`` all shards drain to the tick, configured
    shard failures and chaos faults fire, and the rebalancer takes a
    load window and may split/merge. After the last arrival all shards
    are drained to quiescence, and the fleet roll-up is reconciled. The
    outcome is byte-identical to the event-at-a-time
    :func:`run_replay_reference`.

    ``observer`` is an optional observability plane (duck-typed; see
    :class:`repro.obs.plane.ReplayObsPlane`): ``on_completion`` fires
    per served request, ``on_shard_failure`` when a shard dies,
    ``on_fault`` per injected chaos fault, ``on_control_tick`` after
    each control interval's drain/rebalance, and ``on_end`` after
    quiescence. Observation is strictly outcome-neutral — the returned
    result (and its digest) is byte-identical with or without one.
    Replaying shard by shard completes requests out of trace order, so
    with an observer every completion is tagged ``(event index, phase,
    firing order)`` and each slice's completions are sorted on the tag
    before ``on_completion`` sees them: the callback stream is the
    reference's, call for call.

    An observer that only needs a *subset* of completions may expose a
    ``completion_interest = (slow_threshold_s, salt, cut)`` attribute:
    the replay then pre-filters the firehose inline — a completion is
    delivered iff its latency is ``>= slow_threshold_s``, the request
    was rescued from a failed shard, or the Knuth hash of its request
    id (salted with ``salt``, both ints) falls under ``cut`` (an
    integer threshold out of 2^32). Three scalar checks replace a
    Python call per served request; observers that expose it must
    reconstruct totals from the shard counters (they are scraped at
    every control tick anyway).
    """
    fabric = _Fabric(config, observer, keyed=True)
    router, banks, clock = fabric.router, fabric.banks, fabric.clock
    times, ids, services = fabric.times, fabric.ids, fabric.services
    on_completion, slow_s, salt, cut = fabric.hook
    # Telemetry, like an observer, wants every gateway call made: the
    # fast lane skips the queue-depth samples of the calls it inlines.
    fast = observer is None and not get_recorder().enabled

    start = 0
    while start < config.events:
        while times[start] >= fabric.next_control:
            fabric.control_tick()
        stop = min(int(times.searchsorted(fabric.next_control)),
                   start + _FLUSH_EVERY)
        streams = router.route_batch(start, times[start:stop],
                                     ids[start:stop], services[start:stop])
        kept: list | None = None if observer is None else []
        for shard, ops in streams.items():
            lane = router.gateways[shard], banks[shard], clock, ops
            if fast:
                _run_fast(*lane)
            else:
                _run_slow(*lane, kept, slow_s, salt, cut)
        if kept:
            kept.sort(key=itemgetter(0))
            for _tag, finish, shard, request in kept:
                on_completion(finish, shard, request)
        start = stop
    return fabric.finish()


def run_replay_reference(config: ReplayConfig, observer=None) -> ReplayResult:
    """The event-at-a-time oracle :func:`run_replay` is pinned against.

    One pass over the trace in trace order through the scalar
    :meth:`ShardRouter.submit`: advance the routed shard to the
    arrival, offer the query, advance again. Everything but this loop
    is shared with the kernel, and the router is built without a key
    space, so the cache under test is the plain ``OrderedDict``. About
    3.7x slower: tests and the smoke gate only.
    """
    fabric = _Fabric(config, observer)
    router, banks, clock = fabric.router, fabric.banks, fabric.clock
    for index in range(config.events):
        now = float(fabric.times[index])
        while now >= fabric.next_control:
            fabric.control_tick()
        clock.now = now
        tenant = f"{_TENANT_PREFIX}{fabric.ids[index]}"
        shard = router.route(tenant).shard
        _advance(banks[shard], router.gateways[shard], now, *fabric.hook)
        if router.submit(tenant, float(fabric.services[index])) is not None:
            # A stale-epoch retry may have re-routed the tenant: the
            # cache is fresh after submit, so re-read the shard.
            shard = router.route(tenant).shard
            _advance(banks[shard], router.gateways[shard], now,
                     *fabric.hook)
    return fabric.finish()


def _run_slow(gateway: QueryGateway, bank: _SlotBank, clock: ManualClock,
              ops: tuple, kept: list | None, slow_s: float, salt: int,
              cut: int) -> None:
    """One shard's op stream through the reference's own calls.

    ``ops`` is the shard's column tuple from
    :meth:`ShardRouter.route_batch`. With ``kept`` (an observer is
    attached) every completion that passes the interest filter is
    appended to it tagged ``(event index, phase, firing order)``: phase
    1 is the retried offer of an event whose stale route another shard
    fenced (and advanced on, phase 0) first.
    """
    tag = [0, 0, 0]
    hook = None
    if kept is not None:
        def hook(finish: float, shard_id: str, request) -> None:
            kept.append(((tag[0], tag[1], tag[2]), finish, shard_id,
                         request))
            tag[2] += 1

    times, indices, keys, plans, kinds = ops
    for now, index, key, plan, kind in zip(
            times.tolist(), indices.tolist(), keys.tolist(), plans.tolist(),
            repeat(OFFER) if kinds is None else kinds.tolist()):
        clock.now = now
        tag[:] = index, kind == RETRY, 0
        if kind != RETRY:
            _advance(bank, gateway, now, hook, slow_s, salt, cut)
            if kind == FENCED:
                continue
        if gateway.submit(f"{_TENANT_PREFIX}{key}", plan) is not None:
            _advance(bank, gateway, now, hook, slow_s, salt, cut)


def _run_fast(gateway: QueryGateway, bank: _SlotBank, clock: ManualClock,
              ops: tuple) -> None:
    """One shard's op stream, bare: inlined dispatch plus a fast lane.

    ``ops`` is the shard's column tuple from
    :meth:`ShardRouter.route_batch`; a tenant name is formatted only
    when an op leaves the fast lane for ``gateway.submit``.

    Bit-equivalence with :func:`_run_slow` is argued update by update:
    the dispatch block below is ``_next_request`` + ``_complete`` +
    ``ShardMetrics.record_completion`` inlined (same arithmetic
    expressions, same order of float accumulation), and the fast lane
    only fires when the shard has no backlog, no external admissions,
    and a free slot — exactly the state in which the full path would
    offer, admit, dispatch at ``start = now``, and complete with no
    other side effect: it draws the same gateway sequence number and
    skips ``queue_wait_sum += start - submitted_at`` because the
    increment is exactly ``+0.0``, the identity on the non-negative
    sum. ``LatencyHistogram.record`` is inlined with the same
    expressions in the same order (``_LOG_MIN``,
    ``_BUCKETS_PER_DECADE``, and the clamp bounds come from
    :mod:`repro.telemetry.metrics` itself), and the clock is written
    only on slow-path excursions — ``submit`` is the only callee that
    reads it, so fast-lane and dispatch updates are clock-free.
    """
    metrics = gateway.metrics
    busy = bank.busy
    slots = bank.slots
    slo = metrics.slo_latency_s
    hist = metrics.latency
    counts = hist.counts
    backlog = gateway._backlog
    queues = gateway.queues
    tenants = gateway.tenants
    seq = gateway._seq
    submit = gateway.submit
    heappop = heapq.heappop
    heappush = heapq.heappush
    log10 = math.log10
    fast_ok = gateway.on_submit is None and gateway.max_pending >= 1

    times, _indices, keys, plans, kinds = ops
    for now, key, plan, kind in zip(
            times.tolist(), keys.tolist(), plans.tolist(),
            repeat(OFFER) if kinds is None else kinds.tolist()):
        if kind == RETRY:
            # The retried offer of a stale route: the reference
            # advanced the shard that fenced it, not this one. With
            # nothing queued, freeing the elapsed slots is all the
            # advance after the submit would add to the lane's state.
            if not backlog:
                while busy and busy[0] <= now:
                    heappop(busy)
        elif backlog:
            while busy and busy[0] <= now:
                freed = heappop(busy)
                if not backlog:
                    continue
                name = next(iter(backlog))
                queue = queues[name]
                request = queue.popleft()
                gateway._pending -= 1
                if not queue:
                    del backlog[name]
                    if name not in tenants:
                        del queues[name]
                else:
                    del backlog[name]
                    backlog[name] = None
                submitted = request.submitted_at
                start = freed if freed >= submitted else submitted
                served = request.plan
                finish = start + served
                metrics.completed += 1
                latency = finish - submitted
                if latency <= 0.0:
                    counts[0] += 1
                else:
                    bucket = int((log10(latency) - _LOG_MIN)
                                 * _BUCKETS_PER_DECADE) + 1
                    if bucket < 0:
                        bucket = 0
                    elif bucket > _TOP_BUCKET:
                        bucket = _TOP_BUCKET
                    counts[bucket] += 1
                hist.total += 1
                metrics.queue_wait_sum += start - submitted
                metrics.cost_usd += served * _USD_PER_SLOT_SECOND
                if latency <= slo:
                    metrics.within_slo += 1
                heappush(busy, finish)
            if backlog and len(busy) < slots:
                # Only after a control tick re-homed requests onto a
                # shard with an idle slot (208 of 1.5M ops): the drain
                # above left no ``busy[0] <= now``, so this only fills.
                _advance(bank, gateway, now)
        else:
            while busy and busy[0] <= now:
                heappop(busy)
        if kind == FENCED:
            continue
        if (fast_ok and not backlog and gateway._external == 0
                and len(busy) < slots):
            metrics.offered += 1
            next(seq)
            finish = now + plan
            metrics.completed += 1
            latency = finish - now
            if latency <= 0.0:
                counts[0] += 1
            else:
                bucket = int((log10(latency) - _LOG_MIN)
                             * _BUCKETS_PER_DECADE) + 1
                if bucket < 0:
                    bucket = 0
                elif bucket > _TOP_BUCKET:
                    bucket = _TOP_BUCKET
                counts[bucket] += 1
            hist.total += 1
            metrics.cost_usd += plan * _USD_PER_SLOT_SECOND
            if latency <= slo:
                metrics.within_slo += 1
            heappush(busy, finish)
        else:
            clock.now = now
            if submit(f"{_TENANT_PREFIX}{key}", plan) is not None:
                _advance(bank, gateway, now)
