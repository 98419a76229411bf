"""Deterministic million-tenant trace replay over the sharded fabric.

The full discrete-event kernel prices every arrival at a heap push plus
a process step — fine for thousands of queries, hopeless for millions.
The replay keeps the *admission* path fully real (router, route cache,
epoch fences, gateway queues, shed decisions, rebalancer, failures) and
replaces only query *execution* with an analytic slot model: each shard
is ``slots`` parallel servers; a heap of slot-free times is drained as
the trace clock advances, and each dispatch's completion time is known
in closed form. Everything runs on a :class:`ManualClock`, so the whole
run is a single pass over the trace — O(events) work. Memory is the
trace (two arrays of O(events), held whole), the router's O(tenants)
key-space arrays, and per slice or backlog what is in flight.

Between control ticks no directory mutation, failure, rebalance or SLO
scrape can happen, so each shard's drain is independent by
construction. :func:`run_replay` therefore routes a whole inter-tick
slice at once, as arrays over the trace's dense tenant ids
(:meth:`ShardRouter.route_batch`), and replays it shard by shard
(:func:`_run_lane`), which is what makes the uncontended case a closed
form taken a block at a time: while a shard has no backlog, the lane
assumes a run of ops each finds a free slot on arrival, checks that
for the whole run at once (:func:`_fast_prefix`, one sort and two
``searchsorted`` calls) and applies the prefix before the first op
that would queue. Only ops that meet a backlog take the per-event body,
inlined. The tests keep the same run one event at a time on a
name-keyed router as the oracle the kernel's digest is pinned against.

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
from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from itertools import count
from operator import add, itemgetter

import numpy as np

from repro.serve.gateway import QueryGateway, QueryRequest, Tenant
from repro.shard.rebalance import Rebalancer
from repro.shard.router import FENCED, OFFER, RETRY, ShardRouter
from repro.sim.rng import RandomStreams
from repro.telemetry import canonical_json

# The histogram bucket constants, imported so the lane can bucket its
# latencies as arrays (:func:`_buckets`, tested against
# ``LatencyHistogram.record`` at every bucket edge).
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
#: timestamps, shards keep no cross-slice cursor, and a slice's service
#: times are the next values of one stream — so this only bounds the
#: memory of the op streams and of the slice's service draws.
_FLUSH_EVERY = 131_072

#: Ops per speculative block of a lane (:func:`_run_lane`): a lane's
#: first block is ``_BLOCK_MIN`` ops, a block that runs to its end
#: doubles the next (up to ``_BLOCK_MAX``), one that breaks halves it.
_BLOCK_MIN = 64
_BLOCK_MAX = 4096

#: Every tenant's latency objective, and the rebalancer's split and
#: merge thresholds (its load against the mean shard load).
_SLO_LATENCY_S = 2.0
_HOT_FACTOR = 1.15
_COLD_FACTOR = 0.55


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
    control_interval_s: float = 60.0
    max_shards: int = 12
    #: Virtual times at which a shard failure is injected (the
    #: currently most-backlogged shard dies; its queue must be
    #: recovered, not lost).
    fail_at: tuple = ()
    #: Optional :mod:`repro.chaos` plan name; its ``shard_failure``
    #: specs are polled per live shard at every control tick.
    fault_plan: str = ""

    def __post_init__(self) -> None:
        # A fleet with no shard cannot route; a control tick that does
        # not advance never lets the replay reach its first arrival.
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not self.control_interval_s > 0:
            raise ValueError("control_interval_s must be > 0, got "
                             f"{self.control_interval_s}")
        # A shard with no slot never drains its backlog, and one with no
        # admission room sheds every query.
        if self.slots_per_shard < 1:
            raise ValueError(
                f"slots_per_shard must be >= 1, got {self.slots_per_shard}")
        if self.max_pending_per_shard < 1:
            raise ValueError("max_pending_per_shard must be >= 1, got "
                             f"{self.max_pending_per_shard}")

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
    order. O(1) per call — one head read, one queue pop, and a rotation
    of the backlog ring when the tenant still has work.
    """
    backlog = gateway._backlog
    if not backlog:
        return None
    name = backlog[0]
    request = gateway.pop(name)
    if backlog and backlog[0] == name:  # still backlogged: to the back
        backlog.rotate(-1)
    return request


# Knuth's multiplicative hash constant, for the observer interest
# filter's deterministic request-id slice (the spec is
# ``repro.obs.sampler.COMPLETION_INTEREST`` — kept as a literal so the
# shard layer stays import-free of obs).
_SAMPLE_HASH_MULT = 2654435761

#: Sentinel slow-threshold: every latency compares >= -inf, so an
#: observer without an interest spec sees every completion.
_ALWAYS = float("-inf")


def _complete(metrics, request, start: float, shard: str = "",
              on_completion=None, slow_s: float = _ALWAYS,
              salt: int = 0, cut: int = 0) -> float:
    """Serve ``request`` from ``start`` on the shard; return its finish."""
    submitted = request.submitted_at
    served = request.plan
    finish = start + served
    latency = finish - submitted
    metrics.completed += 1
    metrics.latency.record(latency)
    metrics.queue_wait_sum += start - submitted
    metrics.cost_usd += served * _USD_PER_SLOT_SECOND
    if latency <= metrics.slo_latency_s:
        metrics.within_slo += 1
    if on_completion is not None:
        # Interest pre-filter (see run_replay): three scalar checks in
        # place of a Python call per served request. With the default
        # sentinel bounds every completion passes.
        if (latency >= slow_s or request.rescued
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


def _distinct(ids, tenants: int) -> int:
    """Distinct ids among ``ids``, all in ``[0, tenants)``.

    One boolean per id of the key space (1 MiB at a million tenants):
    no sorted copy of the trace, no million-entry set.
    """
    seen = np.zeros(tenants, dtype=bool)
    seen[ids] = True
    return int(np.count_nonzero(seen))


class _Fabric:
    """Everything of a replay but its event loop.

    The trace, the service-time stream, the clock, the real
    :class:`ShardRouter` over the trace's tenant ids with its
    :class:`ScanGuard`-wrapped gateways and their slot banks, the
    rebalancer, the chaos injector, the observer's unpacked completion
    hook, the control tick and the final roll-up.
    """

    def __init__(self, config: ReplayConfig, observer) -> None:
        self.config = config
        self.observer = observer
        streams = RandomStreams(config.seed)
        self.times, self.ids = zipf_trace(
            streams.stream("shard.trace"), config.tenants, config.events,
            config.window_s, s=config.zipf_s)
        self.service = streams.stream("shard.service")

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
            # The lane inlines the gateway calls that would record; the
            # replay's telemetry is router counters and rebalance spans.
            gateway._telemetry = None
            gateway.queues = ScanGuard(gateway.queues)
            gateway.tenants = ScanGuard(gateway.tenants)
            guards.append(gateway.queues)
            guards.append(gateway.tenants)
            banks[gateway.shard_id] = _SlotBank(slots)
            return gateway

        self.router = ShardRouter(
            self.clock, (_TENANT_PREFIX, config.tenants),
            shards=config.shards,
            max_pending=config.max_pending_per_shard,
            default_tenant=Tenant(
                name="__default__",
                max_queue_depth=config.tenant_queue_depth,
                slo_latency_s=_SLO_LATENCY_S),
            slo_latency_s=_SLO_LATENCY_S,
            gateway_factory=guarded_gateway)
        self.rebalancer = Rebalancer(
            self.router, seed=config.seed, hot_factor=_HOT_FACTOR,
            cold_factor=_COLD_FACTOR, min_shards=1,
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
            report=router.roll_up(),
            rebalances=self.rebalancer.history(),
            distinct_tenants=_distinct(self.ids, config.tenants),
            events=config.events,
            shards_final=len(router.gateways),
            submits=router.submits,
            stale_retries=router.stale_retries,
            migrated=router.migrated,
            recovered=router.recovered,
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
    outcome is byte-identical to running the trace one event at a time
    through the same gateways (the tests keep that oracle).

    ``observer`` is an optional observability plane (duck-typed; see
    :class:`repro.obs.plane.ReplayObsPlane`): ``on_completion`` fires
    per served request, ``on_shard_failure`` when a shard dies,
    ``on_fault`` per injected chaos fault, ``on_control_tick`` after
    each control interval's drain/rebalance, and ``on_end`` after
    quiescence. Observation is strictly outcome-neutral — the returned
    result (and its digest) is byte-identical with or without one. An
    observed run takes the bare run's lane (:func:`_run_lane`), which
    completes requests shard by shard, out of trace order: each kept
    completion is tagged ``(event index, phase, firing order)`` and a
    slice's are sorted on the tag before ``on_completion`` sees them,
    so the callback stream is the event-at-a-time one, call for call.

    An observer that only needs a *subset* of completions may expose a
    ``completion_interest = (slow_threshold_s, salt, cut)`` attribute:
    the lane then pre-filters the firehose inline — a completion is
    delivered iff its latency is ``>= slow_threshold_s``, the request
    was rescued from a failed shard, or the Knuth hash of its request
    id (salted with ``salt``, both ints) falls under ``cut`` (an
    integer threshold out of 2^32). The check replaces a Python call
    per served request (a block makes it as array operations and
    builds a request only for a completion it keeps); observers that
    expose it must
    reconstruct totals from the shard counters (they are scraped at
    every control tick anyway).
    """
    fabric = _Fabric(config, observer)
    router, banks = fabric.router, fabric.banks
    times, ids, service = fabric.times, fabric.ids, fabric.service
    on_completion, slow_s, salt, cut = fabric.hook

    start = 0
    while start < config.events:
        while times[start] >= fabric.next_control:
            fabric.control_tick()
        stop = min(int(times.searchsorted(fabric.next_control)),
                   start + _FLUSH_EVERY)
        streams = router.route_batch(
            start, times[start:stop], ids[start:stop],
            service.exponential(config.mean_service_s, size=stop - start))
        kept: list | None = None if observer is None else []
        for shard, ops in streams.items():
            _run_lane(router.gateways[shard], banks[shard], ops, kept,
                      slow_s, salt, cut)
        if kept:
            kept.sort(key=itemgetter(0))
            for _tag, finish, shard, request in kept:
                on_completion(finish, shard, request)
        start = stop
    return fabric.finish()


def _buckets(latency: np.ndarray) -> np.ndarray:
    """``LatencyHistogram.record``'s bucket of every latency, bit for bit.

    numpy's ``log10`` may differ from ``math.log10`` in the last ulp,
    so a position within 1e-6 of a bucket edge is recomputed with
    ``math.log10``; ``int()`` truncates toward zero (latencies under
    1 ms have negative positions), hence ``trunc``, never ``floor``.
    """
    bucket = np.zeros(len(latency), dtype=np.intp)
    positive = np.flatnonzero(latency > 0.0)
    if len(positive):
        values = latency[positive]
        position = (np.log10(values) - _LOG_MIN) * _BUCKETS_PER_DECADE
        for at in np.flatnonzero(
                np.abs(position - np.rint(position)) < 1e-6).tolist():
            position[at] = (math.log10(values[at]) - _LOG_MIN) \
                * _BUCKETS_PER_DECADE
        bucket[positive] = np.clip(np.trunc(position) + 1, 0, _TOP_BUCKET)
    return bucket


def _fast_prefix(busy: list, slots: int, times: np.ndarray,
                 finish: np.ndarray) -> int:
    """How many leading ops of a block take the fast lane.

    The shard has no backlog and ``busy`` holds its slot-free times.
    If ops ``0..i-1`` all took the fast lane, op ``i`` finds
    ``#{busy > t_i} + i - #{finish_j <= t_i, j < i}`` slots held after
    its advance, and takes a free one iff that is below ``slots``.
    Every ``finish_j > t_j >= t_i`` for ``j >= i`` (the caller ends a
    block before an op whose plan vanishes against its arrival), so
    the last count may run over the whole block: one sort and two
    ``searchsorted`` calls. Returns the index of the first op that
    would queue, or the block's length.
    """
    held = len(busy) - np.sort(busy).searchsorted(times, "right")
    freed = np.sort(finish).searchsorted(times, "right")
    full = held + np.arange(len(times)) - freed >= slots
    return int(full.argmax()) if full.any() else len(times)


def _run_lane(gateway: QueryGateway, bank: _SlotBank, ops: tuple,
              kept: list | None, slow_s: float, salt: int, cut: int) -> None:
    """One shard's op stream: speculative blocks plus a scalar drain.

    ``ops`` is the shard's column tuple from
    :meth:`ShardRouter.route_batch`. Each op is the event-at-a-time
    replay's body on this shard: an ``OFFER`` advances the shard to
    its arrival, submits, and advances again if admitted; a ``FENCED``
    op (its route went stale, another shard takes the offer) only
    advances; a ``RETRY`` (the offer the fence re-routed here) only
    submits and advances.

    **Blocks.** While the shard has no backlog, an op that finds a
    free slot after the advance is admitted and dispatched at
    ``start = now`` with nothing else happening: the advance before
    only pops elapsed slots, ``submit`` cannot shed (every queue is
    empty, ``max_pending > 0``), and the advance after dispatches this
    request alone, so ``finish = now + plan`` and ``queue_wait_sum``
    gains an exact ``+0.0`` (skipped). A ``RETRY`` dispatches on the
    first elapsed slot it frees, at ``now`` as well, and ends in the
    same state. So the lane assumes that a run of ops all go this way,
    checks the assumption for the whole run at once
    (:func:`_fast_prefix`) and applies the prefix before the first op
    that would queue: the slot bank becomes the finishes still running
    at the prefix's last arrival, the gateway's sequence advances by
    the prefix's length, and ``cost_usd`` adds the prefix's terms one
    by one, in trace order. A block ends before a ``FENCED`` op and
    before an op whose finish equals its arrival (the one case where
    ``finish > now`` fails and, for a ``RETRY``, where the scalar body
    pops the slot it just filled). Its size doubles after a block that
    ran to its end and halves after one that broke.

    **Scalar drain.** Every other op goes through the scalar body with
    ``_next_request`` + ``_complete`` inlined in the advance before
    (same expressions, same order of float accumulation) and
    ``gateway.submit`` inlined (:meth:`ShardRouter.route_batch` made
    the epoch check); the advance after is called only when it has
    something to do (an elapsed slot or a free one). When the advance
    before leaves no backlog and a free slot, the op goes back to the
    block phase.

    **Tallies.** ``offered``, ``completed``, the latency histogram and
    ``within_slo`` are integer counts that commute with every other
    update, so the lane adds them for its block ops and its drained
    requests once, when it ends (:func:`_buckets`); ``_advance`` calls
    record their completions as they go.

    **Gateways.** The lane takes the gateways the replay's factory
    builds: a default tenant, no scheduler hook, no gateway telemetry,
    and (:class:`ReplayConfig` checks it) at least one slot and
    ``max_pending > 0``. Nothing in it reads the clock.

    With ``kept`` (an observer is attached) each completion that
    passes ``_complete``'s interest filter (``slow_s``/``salt``/``cut``)
    is appended to it tagged ``(event index, phase, firing order)``:
    phase 1 is the retried offer of an event whose stale route another
    shard fenced (and advanced on, phase 0) first, and the firing order
    only increases. A block evaluates the filter as arrays and builds
    a request only for the completions it keeps.
    """
    times, indices, keys, plans, kinds = ops
    metrics = gateway.metrics
    shard = gateway.shard_id
    busy = bank.busy
    slots = bank.slots
    backlog = gateway._backlog
    hook = None
    if kept is not None:
        append = kept.append
        order = count()
        tag = [0, False]

        def hook(finish: float, shard_id: str, request) -> None:
            append(((*tag, next(order)), finish, shard_id, request))

    n = len(times)
    # Every op's outcome if it were dispatched on arrival, as arrays:
    # what the scalar dispatch at ``start = now`` computes, bit for bit
    # (one IEEE operation each, the same as Python's).
    finish = times + plans
    latency = finish - times
    cost = plans * _USD_PER_SLOT_SECOND
    time_of = times.tolist()
    plan_of = plans.tolist()
    key_of = keys.tolist()
    kind_of = [OFFER] * n if kinds is None else kinds.tolist()
    # Ops no block may hold, and ``n`` as the sentinel.
    held_back = latency <= 0.0
    if kinds is not None:
        held_back |= kinds == FENCED
    stops = [*np.flatnonzero(held_back).tolist(), n]
    if kept is not None:
        index_of = indices.tolist()
        salt64 = np.uint64(salt % 2**64)
    # The integer tallies of the lane's completions are added when it
    # ends: ``taken`` marks the ops blocks dispatched, ``waits`` holds
    # the latencies of the queued requests the drain dispatched.
    taken = np.zeros(n, dtype=bool)
    waits: list[float] = []
    slo = metrics.slo_latency_s
    queues = gateway.queues
    tenants = gateway.tenants
    queue_of = queues.get
    tenant_of = tenants.get
    default = gateway.default_tenant
    max_pending = gateway.max_pending
    heappop = heapq.heappop
    heappush = heapq.heappush

    i = 0
    stop_at = 0
    size = _BLOCK_MIN
    while i < n:
        while stops[stop_at] < i:
            stop_at += 1
        if not backlog:
            stop = min(i + size, stops[stop_at])
            if stop > i:
                m = _fast_prefix(busy, slots, times[i:stop],
                                 finish[i:stop])
                if m:
                    end = i + m
                    last = time_of[end - 1]
                    live = np.concatenate((busy, finish[i:end]))
                    live = live[live > last]
                    live.sort()
                    busy[:] = live.tolist()
                    drawn = next(gateway._seq)
                    gateway._seq = count(drawn + m)
                    metrics.cost_usd = reduce(add, cost[i:end].tolist(),
                                              metrics.cost_usd)
                    taken[i:end] = True
                    if kept is not None:
                        pick = latency[i:end] >= slow_s
                        if cut:
                            drawn_ids = np.arange(drawn, drawn + m,
                                                  dtype=np.uint64)
                            pick |= (drawn_ids * np.uint64(_SAMPLE_HASH_MULT)
                                     + salt64) & np.uint64(0xFFFFFFFF) < cut
                        for at in np.flatnonzero(pick).tolist():
                            op = i + at
                            name = f"{_TENANT_PREFIX}{key_of[op]}"
                            append((
                                (index_of[op], kind_of[op] == RETRY,
                                 next(order)),
                                float(finish[op]), shard,
                                QueryRequest(
                                    tenant=name, plan=plan_of[op],
                                    submitted_at=time_of[op],
                                    seq=drawn + at,
                                    priority=gateway.tenant(name).priority)))
                    i = end
                if i == stop:
                    size = min(2 * size, _BLOCK_MAX)
                    continue
                size = max(size // 2, _BLOCK_MIN)

        now = time_of[i]
        kind = kind_of[i]
        if kind != RETRY:
            if backlog:
                while busy and busy[0] <= now:
                    freed = heappop(busy)
                    if not backlog:
                        continue
                    name = backlog[0]
                    queue = queues[name]
                    request = queue.popleft()
                    gateway._pending -= 1
                    if not queue:
                        backlog.popleft()
                        if name not in tenants:
                            del queues[name]
                    else:
                        backlog.rotate(-1)
                    submitted = request.submitted_at
                    start = freed if freed >= submitted else submitted
                    served = request.plan
                    done = start + served
                    waited = done - submitted
                    waits.append(waited)
                    metrics.queue_wait_sum += start - submitted
                    metrics.cost_usd += served * _USD_PER_SLOT_SECOND
                    heappush(busy, done)
                    if kept is not None and (
                            waited >= slow_s or request.rescued
                            or ((request.seq * _SAMPLE_HASH_MULT + salt)
                                & 0xFFFFFFFF) < cut):
                        append(((index_of[i], False, next(order)), done,
                                shard, request))
                # Only after a control tick re-homed requests onto a
                # shard with an idle slot: the drain above left no
                # ``busy[0] <= now``, so this only fills.
                if backlog and len(busy) < slots:
                    if hook is not None:
                        tag[:] = index_of[i], False
                    _advance(bank, gateway, now, hook, slow_s, salt, cut)
            else:
                while busy and busy[0] <= now:
                    heappop(busy)
            if kind == FENCED:
                i += 1
                continue
            if not backlog and len(busy) < slots and stops[stop_at] != i:
                continue  # a free slot and no queue: the block takes it
        name = f"{_TENANT_PREFIX}{key_of[i]}"
        metrics.offered += 1
        tenant = tenant_of(name) or default
        queue = queue_of(name)
        if queue is not None and len(queue) >= tenant.max_queue_depth \
                or gateway._pending >= max_pending:
            metrics.shed += 1
        else:
            if queue is None:
                queue = queues[name] = deque()
            if not queue:
                backlog.append(name)
            # Positional (tenant, plan, submitted_at, seq, priority):
            # half the cost of keywords, once per queued op.
            queue.append(QueryRequest(name, plan_of[i], now,
                                      next(gateway._seq), tenant.priority))
            gateway._pending += 1
            if len(busy) < slots or busy[0] <= now:
                if hook is not None:
                    tag[:] = index_of[i], kind == RETRY
                _advance(bank, gateway, now, hook, slow_s, salt, cut)
        i += 1

    latencies = latency[taken]
    metrics.offered += len(latencies)
    if waits:
        latencies = np.concatenate((latencies, waits))
    if len(latencies):
        hist = metrics.latency
        metrics.completed += len(latencies)
        hist.total += len(latencies)
        metrics.within_slo += int(np.count_nonzero(latencies <= slo))
        tally = np.bincount(_buckets(latencies))
        for at in np.flatnonzero(tally).tolist():
            hist.counts[at] += int(tally[at])
