"""The shard router: the fleet's O(1)-per-event data plane.

A :class:`ShardRouter` fronts a fleet of
:class:`~repro.serve.gateway.QueryGateway` shards. On the hot path it
does exactly three O(1)-in-tenant-count things per submission: look the
tenant up in a bounded route cache (falling back to the directory's
O(log vnodes) ring lookup on a miss), offer the query to the routed
shard with the route's epoch, and — if the shard's fence has advanced
because a rebalance superseded the route — refresh from the directory
and retry once. The retry loop is bounded: the router is the only
mutator of the directory and re-syncs every live shard's fence after
each mutation, so a freshly fetched route is never stale.
:meth:`ShardRouter.route_batch` is the same data plane for a whole
slice of a trace at once: it makes every routing decision
:meth:`~ShardRouter.submit` would make, against the same cache, fences
and load window, and hands the admissions back as per-shard op streams
instead of performing them. It works on arrays, not events, which
needs tenants that are dense integer keys: a router built over a
``key_space`` keeps its route cache as arrays over those keys
(:class:`_KeyedRoutes`), and every path — ``route``, ``_refresh``, the
control plane's re-homing, ``route_batch`` — reads and writes that one
cache. Without a key space the cache is an ``OrderedDict`` by name.

The control plane (``split_shard`` / ``merge_shard`` / ``fail_shard``
/ ``add_shard``) keeps the admitted-work invariant: whenever a shard
is retired or loses key ranges, its backlog is drained in arrival
order and re-homed on the shards the directory now names — admitted
queries are never dropped, and the fleet roll-up counts every re-homed
request as recovered.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Callable, Optional

import numpy as np

from repro.serve.gateway import QueryGateway, StaleEpoch, Tenant
from repro.shard.directory import PartitionDirectory, Route
from repro.shard.metrics import FleetMetrics, ShardMetrics
from repro.shard.ring import hash_keys
from repro.telemetry import get_recorder

#: Route-cache capacity: bounds router memory at O(cache), not
#: O(tenants ever seen); eviction is FIFO on insertion order, so it is
#: deterministic and O(1).
DEFAULT_ROUTE_CACHE = 65536


#: Op kinds in a :meth:`ShardRouter.route_batch` stream: offer the
#: query; this shard fenced the event's stale route and the refreshed
#: route led elsewhere (nothing to offer); offer the query on the retry
#: of a route another shard fenced.
OFFER, FENCED, RETRY = 0, 1, 2

#: :meth:`_KeyedRoutes.touch` classifies events in blocks of a
#: sixteenth of the cache: a larger block puts more hits at risk of
#: eviction inside it (a scalar step each) and sorts more keys at once,
#: a smaller one pays a block's fixed array-call cost more often.
#: Measured flat (0.15-0.22 s per 1.5M events) from 1/2 to 1/32.
_BLOCKS_PER_CACHE = 16


class _KeyedRoutes:
    """The FIFO route cache of a dense key space, as counters.

    Nothing leaves an insertion-ordered cache but its oldest entry, so
    "``key`` is cached" is ``seq[key] > inserts - capacity``, where
    ``inserts`` counts insertions so far and ``seq[key]`` is the number
    of the key's last one (0 = never). Refreshing a cached key rewrites
    its route and leaves ``seq`` alone, as assigning to a present
    ``OrderedDict`` key leaves its position. A route is stored as its
    code: the index into the ``(shard, epoch)`` routes seen so far, a
    few per directory mutation.
    """

    def __init__(self, prefix: str, size: int, capacity: int) -> None:
        self.prefix = prefix
        self.capacity = capacity
        #: Ring position of every key: hashed once, here.
        self.hashes = hash_keys(prefix, range(size))
        self.seq = np.zeros(size, dtype=np.int32)
        self.code = np.zeros(size, dtype=np.int16)
        self.inserts = 0
        self.routes: list[Route] = []
        self._codes: dict[Route, int] = {}

    def key(self, tenant: str) -> int:
        """The dense key of a tenant name (``KeyError`` outside the space)."""
        digits = tenant[len(self.prefix):]
        if tenant.startswith(self.prefix) and digits.isascii() \
                and digits.isdigit():
            key = int(digits)
            if key < len(self.seq) and str(key) == digits:
                return key
        raise KeyError(f"tenant {tenant!r} is outside the key space "
                       f"{self.prefix!r} x {len(self.seq)}")

    def code_of(self, route: Route) -> int:
        code = self._codes.get(route)
        if code is None:
            code = self._codes[route] = len(self.routes)
            if code > np.iinfo(np.int16).max:
                raise OverflowError("more routes issued than int16 codes")
            self.routes.append(route)
        return code

    def get(self, tenant: str) -> Optional[Route]:
        key = self.key(tenant)
        if self.seq[key] > max(self.inserts - self.capacity, 0):
            return self.routes[self.code[key]]
        return None

    def put(self, tenant: str, route: Route) -> None:
        key = self.key(tenant)
        if self.seq[key] <= max(self.inserts - self.capacity, 0):
            self.inserts += 1
            self.seq[key] = self.inserts
        self.code[key] = self.code_of(route)

    def cached(self) -> list[tuple[str, Route]]:
        """The cached ``(tenant, route)`` pairs, oldest insertion first."""
        keys = np.flatnonzero(
            self.seq > max(self.inserts - self.capacity, 0))
        keys = keys[self.seq[keys].argsort()]
        return [(f"{self.prefix}{key}", self.routes[self.code[key]])
                for key in keys.tolist()]

    def touch(self, keys: np.ndarray, codes: np.ndarray,
              stale: np.ndarray) -> tuple[list[int], list[int]]:
        """Pass ``keys`` through the cache in order, a block at a time.

        ``codes[i]`` is the code a refresh at event ``i`` would store
        and ``stale`` flags, by code, the routes a gateway would fence
        (neither changes during the call). Returns the positions of the
        events that found such a route cached, and those routes' codes;
        every touched key ends up cached under its ``codes[i]``.

        Evictions are sequential, so a block is a fraction of the
        capacity (:data:`_BLOCKS_PER_CACHE`). In a block of ``size``
        events starting at ``inserts = before``, a key not cached at
        the start misses at its first occurrence and hits afterwards
        (fewer insertions follow than would evict it again); a cached
        key with ``seq > before + size - capacity`` hits throughout;
        only touches of the ``size`` oldest entries depend on how many
        insertions precede them, and a scalar loop over those events
        alone settles them.
        """
        seq, code, capacity = self.seq, self.code, self.capacity
        block = max(1, capacity // _BLOCKS_PER_CACHE)
        fenced_at: list[int] = []
        fenced_code: list[int] = []
        for lo in range(0, len(keys), block):
            k = keys[lo:lo + block]
            before = self.inserts
            last = seq[k]
            cached = last > max(before - capacity, 0)
            order = k.argsort(kind="stable")
            ranked = k[order]
            first = np.empty(len(k), dtype=bool)
            first[order[0]] = True
            first[order[1:]] = ranked[1:] != ranked[:-1]
            miss = first & ~cached
            at_risk = np.flatnonzero(
                cached & (last <= before + len(k) - capacity))
            if len(at_risk):
                # Evicted by now iff seq <= inserts so far - capacity.
                behind = before - capacity
                back = set()  # keys re-inserted earlier in this block
                for i, key, number, misses in zip(
                        at_risk.tolist(), k[at_risk].tolist(),
                        last[at_risk].tolist(),
                        miss.cumsum()[at_risk].tolist()):
                    if number <= behind + misses + len(back) \
                            and key not in back:
                        back.add(key)
                        miss[i] = True
            held = code[k]
            found = np.flatnonzero(first & ~miss & stale[held])
            fenced_at += (lo + found).tolist()
            fenced_code += held[found].tolist()
            numbered = miss.cumsum()
            seq[k[miss]] = before + numbered[miss]
            code[k] = codes[lo:lo + block]
            self.inserts = before + int(numbered[-1])
        return fenced_at, fenced_code


class ShardRouter:
    """Routes tenant traffic onto a fleet of gateway shards."""

    def __init__(self, env, shards: int = 2,
                 vnodes: Optional[int] = None,
                 max_pending: float = math.inf,
                 default_tenant: Optional[Tenant] = None,
                 slo_latency_s: float = math.inf,
                 route_cache_size: int = DEFAULT_ROUTE_CACHE,
                 gateway_factory: Optional[Callable[..., QueryGateway]]
                 = None,
                 directory: Optional[PartitionDirectory] = None,
                 key_space: Optional[tuple[str, int]] = None) -> None:
        if route_cache_size <= 0:
            raise ValueError("route_cache_size must be positive")
        self.env = env
        self.directory = directory if directory is not None \
            else PartitionDirectory(shards=shards, vnodes=vnodes)
        self.max_pending = max_pending
        self.default_tenant = default_tenant
        self.slo_latency_s = slo_latency_s
        self.route_cache_size = route_cache_size
        self._gateway_factory = gateway_factory
        self.fleet = FleetMetrics()
        #: Live gateways by shard id.
        self.gateways: dict[str, QueryGateway] = {}
        #: Serving metrics of every shard *ever* — retired shards stay
        #: in the roll-up so conservation holds across rebalances.
        self.shard_metrics: dict[str, ShardMetrics] = {}
        #: Bounded tenant -> Route cache. OrderedDict for its O(1)
        #: ``popitem(last=False)``: FIFO eviction via ``next(iter(d))``
        #: on a plain dict degrades linearly with accumulated deletion
        #: tombstones at million-tenant churn.
        self._routes: OrderedDict[str, Route] = OrderedDict()
        #: Given a ``key_space`` ``(prefix, size)`` — every tenant is
        #: ``f"{prefix}{key}"`` for a key below ``size`` — the cache is
        #: arrays over the keys instead, which is what lets
        #: :meth:`route_batch` route a slice without a per-event step.
        self._keyed = None if key_space is None \
            else _KeyedRoutes(*key_space, capacity=route_cache_size)
        #: Submissions per live shard since the last window take —
        #: the rebalancer's load signal.
        self._window: dict[str, int] = {}
        self.submits = 0
        self.stale_retries = 0
        self.migrated = 0
        recorder = get_recorder()
        self._telemetry = recorder if recorder.enabled else None
        if self._telemetry is not None:
            self._submit_counter = recorder.counter("router.submits")
            self._stale_counter = recorder.counter("router.stale_retries")
        for shard in self.directory.shards():
            self._spawn(shard)

    # -- fleet membership --------------------------------------------------

    def shards(self) -> list[str]:
        """Live shard ids, sorted."""
        return sorted(self.gateways)

    def _spawn(self, shard: str) -> QueryGateway:
        metrics = ShardMetrics(shard_id=shard,
                               slo_latency_s=self.slo_latency_s)
        if self._gateway_factory is not None:
            gateway = self._gateway_factory(
                self.env, metrics=metrics, max_pending=self.max_pending,
                shard_id=shard, default_tenant=self.default_tenant)
        else:
            gateway = QueryGateway(
                self.env, metrics=metrics, max_pending=self.max_pending,
                shard_id=shard, default_tenant=self.default_tenant)
        gateway.epoch = self.directory.shard_epoch(shard)
        self.gateways[shard] = gateway
        self.shard_metrics[shard] = metrics
        self._window[shard] = 0
        return gateway

    def _sync_fences(self) -> None:
        # After any directory mutation, every live shard's fence tracks
        # its directory epoch; O(shards), never O(tenants).
        for shard in sorted(self.gateways):
            self.gateways[shard].epoch = self.directory.shard_epoch(shard)

    # -- data plane --------------------------------------------------------

    def route(self, tenant: str) -> Route:
        """The cached route of a tenant (refreshed when invalid)."""
        route = self._routes.get(tenant) if self._keyed is None \
            else self._keyed.get(tenant)
        if route is None or route.shard not in self.gateways:
            route = self._refresh(tenant)
        return route

    def _refresh(self, tenant: str) -> Route:
        route = self.directory.locate(tenant)
        if self._keyed is not None:
            self._keyed.put(tenant, route)
            return route
        if tenant not in self._routes \
                and len(self._routes) >= self.route_cache_size:
            self._routes.popitem(last=False)
        self._routes[tenant] = route
        return route

    def submit(self, tenant: str, plan: Any):
        """Route one query; returns the queued request or ``None`` if shed.

        Cost per call is O(1) in the number of tenants: a cache probe,
        one gateway offer, and — only when a rebalance raced the cached
        route — a single directory refresh and retry.
        """
        self.submits += 1
        route = self.route(tenant)
        for _ in range(2):
            gateway = self.gateways[route.shard]
            try:
                request = gateway.submit(tenant, plan, epoch=route.epoch)
            except StaleEpoch:
                self.stale_retries += 1
                if self._telemetry is not None:
                    self._stale_counter.inc()
                route = self._refresh(tenant)
                continue
            self._window[route.shard] += 1
            if self._telemetry is not None:
                self._submit_counter.inc()
            return request
        raise RuntimeError(
            f"route of tenant {tenant!r} stale after directory refresh")

    def route_batch(self, start: int, times: np.ndarray, keys: np.ndarray,
                    plans: np.ndarray) -> dict[str, tuple]:
        """Route a slice of a trace into per-shard op streams, as arrays.

        Event ``start + i`` is the tenant of dense key ``keys[i]``
        offering ``plans[i]`` at ``times[i]``; the router must have
        been built over a ``key_space``. Every routing decision is the
        one :meth:`submit` would make for the same events in the same
        order — cache probe, FIFO eviction, fence check, one refresh
        on a stale route — and ``submits``, ``stale_retries``, the
        load window and the fenced gateway's ``stale_rejections``
        advance as they would; only the admissions themselves are left
        to the caller, as one column tuple ``(times, indices, keys,
        plans, kinds)`` per shard with work, in event order. ``kinds``
        is ``None`` — every op an :data:`OFFER` — unless a stale route
        was fenced and its refresh led to another shard: then the
        fencing shard carries a :data:`FENCED` op (nothing to offer)
        and the new owner a :data:`RETRY` (offer, on the retry).

        The directory must not change during the call, so the caller
        slices the trace at its control ticks; that is what makes the
        slice a pure function of arrays. Every directory mutation bumps
        or retires the shard that loses keys, so a cached route that is
        live and un-fenced names the ring owner: the target shard of
        every event is one ``searchsorted`` of the precomputed key
        hashes against the ring points, and the cache only decides
        which events count as misses and which met a stale route
        (:meth:`_KeyedRoutes.touch`). Pinned tenants break that
        argument, so with directory overrides the slice is routed one
        name at a time instead.
        """
        cache = self._keyed
        if cache is None:
            raise TypeError("route_batch needs a router built over a "
                            "key_space")
        gateways = self.gateways
        directory = self.directory
        shards, owner = directory.ring.lookup_hashes(cache.hashes[keys])
        current = np.array([cache.code_of(directory._shard_routes[shard])
                            for shard in shards], dtype=np.int16)
        stale = np.array([route.shard in gateways
                          and route.epoch != gateways[route.shard].epoch
                          for route in cache.routes])
        if directory._overrides or stale[current].any():
            owner, moved, retries = self._route_named(keys, shards, owner)
        else:
            at, codes = cache.touch(keys, current[owner], stale)
            moved = []
            for position, code in zip(at, codes):
                fenced = cache.routes[code].shard
                gateways[fenced].stale_rejections += 1
                if shards[owner[position]] != fenced:
                    moved.append((position, shards.index(fenced)))
            retries = len(at)
        self.submits += len(keys)
        self.stale_retries += retries
        if self._telemetry is not None:
            self._submit_counter.inc(len(keys))
            self._stale_counter.inc(retries)
        counts = np.bincount(owner, minlength=len(shards))
        for shard, offers in zip(shards, counts.tolist()):
            self._window[shard] += offers

        # Group by shard, event order kept; a FENCED op is one more row
        # on the fencing shard at its event's position.
        position = np.arange(len(keys))
        kinds = None
        if moved:
            at, fenced = (np.array(column) for column in zip(*moved))
            kinds = np.zeros(len(keys) + len(moved), dtype=np.int8)
            kinds[at] = RETRY
            kinds[len(keys):] = FENCED
            position = np.concatenate([position, at])
            owner = np.concatenate([owner, fenced.astype(owner.dtype)])
            counts = np.bincount(owner, minlength=len(shards))
            order = np.lexsort((position, owner))
        else:
            order = owner.argsort(kind="stable")
        streams: dict[str, tuple] = {}
        lo = 0
        for shard, hi in zip(shards, counts.cumsum().tolist()):
            if hi > lo:
                rows = order[lo:hi]
                at = position[rows]
                streams[shard] = (times[at], start + at, keys[at], plans[at],
                                  None if kinds is None else kinds[rows])
            lo = hi
        return streams

    def _route_named(self, keys: np.ndarray, shards: list[str],
                     owner: np.ndarray
                     ) -> tuple[np.ndarray, list[tuple], int]:
        """:meth:`route_batch`'s decisions, one name at a time.

        The scalar :meth:`route` / :meth:`_refresh` and the fence check
        of :meth:`submit`, for slices where a pinned tenant (or a fence
        out of step with the directory) means the ring owner is not
        the answer. Returns the corrected per-event owners, the
        ``(position, fencing shard)`` of every stale route that moved,
        and the number of stale routes met.
        """
        gateways = self.gateways
        rank = {shard: index for index, shard in enumerate(shards)}
        prefix = self._keyed.prefix
        moved = []
        stale = 0
        for position, key in enumerate(keys.tolist()):
            tenant = f"{prefix}{key}"
            shard, epoch = self.route(tenant)
            if epoch != gateways[shard].epoch:
                stale += 1
                gateways[shard].stale_rejections += 1
                fenced = shard
                shard, epoch = self._refresh(tenant)
                if epoch != gateways[shard].epoch:
                    raise RuntimeError(
                        f"route of tenant {tenant!r} stale after "
                        f"directory refresh")
                if shard != fenced:
                    moved.append((position, rank[fenced]))
            owner[position] = rank[shard]
        return owner, moved, stale

    def offer_external(self, tenant: str) -> Optional[Callable[[], None]]:
        """Admit one unit of external work (e.g. a futures job).

        Routes exactly like :meth:`submit` but holds shard capacity via
        :meth:`~repro.serve.gateway.QueryGateway.offer_external`;
        returns the release callable, or ``None`` when shed.
        """
        self.submits += 1
        route = self.route(tenant)
        for _ in range(2):
            gateway = self.gateways[route.shard]
            try:
                release = gateway.offer_external(tenant, epoch=route.epoch)
            except StaleEpoch:
                self.stale_retries += 1
                if self._telemetry is not None:
                    self._stale_counter.inc()
                route = self._refresh(tenant)
                continue
            self._window[route.shard] += 1
            if self._telemetry is not None:
                self._submit_counter.inc()
            return release
        raise RuntimeError(
            f"route of tenant {tenant!r} stale after directory refresh")

    # -- rebalancer signals ------------------------------------------------

    def take_load_window(self) -> dict[str, int]:
        """Per-shard submissions since the last take (and reset)."""
        window = {shard: self._window[shard]
                  for shard in sorted(self._window)}
        for shard in window:
            self._window[shard] = 0
        return window

    def pending_total(self) -> int:
        """Queued plus external work across all live shards."""
        return sum(self.gateways[shard].load
                   for shard in sorted(self.gateways))

    def roll_up(self):
        """Fleet-level metrics roll-up, reconciled against the backlog."""
        return self.fleet.roll_up(
            [self.shard_metrics[shard]
             for shard in sorted(self.shard_metrics)],
            pending=self.pending_total())

    # -- control plane -----------------------------------------------------

    def _rehome(self, orphans, recovered: bool) -> int:
        """Adopt drained requests onto their current directory owners.

        Returns how many landed on a different shard than they were
        drained from. ``recovered`` requests (from merged or failed
        shards) are counted in the fleet roll-up.
        """
        moved = 0
        for request in orphans:
            if recovered:
                request.rescued = True
            target = self._refresh(request.tenant).shard
            self.gateways[target].adopt(request)
            moved += 1
        if recovered:
            self.fleet.recovered_requests += len(orphans)
        return moved

    def add_shard(self, name: Optional[str] = None) -> str:
        """Grow the fleet by one shard; re-homes remapped backlog."""
        start = self.env.now
        shard = self.directory.add_shard(name)
        self._spawn(shard)
        self._sync_fences()
        # Losers' queued tenants may now map to the new shard: drain
        # and re-home every live backlog entry whose route moved.
        moved = 0
        for owner in self.shards():
            if owner == shard:
                continue
            moved += self._resettle(owner)
        self.migrated += moved
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.add:{shard}", start, self.env.now,
                category="rebalance", attrs={"shard": shard,
                                             "moved": moved})
        return shard

    def _resettle(self, owner: str) -> int:
        """Re-home the queued requests of ``owner`` that remapped away."""
        gateway = self.gateways[owner]
        stay: list = []
        moved = 0
        for request in gateway.drain_backlog():
            target = self._refresh(request.tenant).shard
            if target == owner:
                stay.append(request)
            else:
                self.gateways[target].adopt(request)
                moved += 1
        for request in stay:
            gateway.adopt(request)
        return moved

    def split_shard(self, hot: str) -> str:
        """Split a hot shard; remapped backlog follows its tenants."""
        start = self.env.now
        new = self.directory.split_shard(hot)
        self._spawn(new)
        self._sync_fences()
        moved = self._resettle(hot)
        self.migrated += moved
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.split:{hot}", start, self.env.now,
                category="rebalance",
                attrs={"hot": hot, "new": new, "moved": moved})
        return new

    def merge_shard(self, cold: str, target: str) -> int:
        """Merge a cold shard away; its backlog is recovered, not lost."""
        start = self.env.now
        gateway = self.gateways.pop(cold)
        self._window.pop(cold)
        orphans = gateway.drain_backlog()
        self.directory.merge_shard(cold, target)
        self._sync_fences()
        self._rehome(orphans, recovered=True)
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.merge:{cold}", start, self.env.now,
                category="rebalance",
                attrs={"cold": cold, "target": target,
                       "recovered": len(orphans)})
        return len(orphans)

    def fail_shard(self, dead: str) -> int:
        """Fail a shard; the directory reassigns, the backlog is rescued.

        Models a shard loss with a durable admission log: queued (not
        yet dispatched) requests are re-homed on the heir shards the
        ring names, so no admitted query disappears. Returns the number
        of recovered requests.
        """
        start = self.env.now
        gateway = self.gateways.pop(dead)
        self._window.pop(dead)
        orphans = gateway.drain_backlog()
        heirs = self.directory.fail_shard(dead)
        self._sync_fences()
        self._rehome(orphans, recovered=True)
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.fail:{dead}", start, self.env.now,
                category="rebalance",
                attrs={"dead": dead, "heirs": ",".join(heirs),
                       "recovered": len(orphans)})
        return len(orphans)
