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
instead of performing them.

The control plane (``split_shard`` / ``merge_shard`` / ``fail_shard``
/ ``add_shard``) keeps the admitted-work invariant: whenever a shard
is retired or loses key ranges, its backlog is drained in arrival
order and re-homed on the shards the directory now names — admitted
queries are never dropped, and the fleet roll-up counts every re-homed
request as recovered.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from collections import OrderedDict
from itertools import count
from typing import Any, Callable, Optional, Sequence

from repro.serve.gateway import QueryGateway, StaleEpoch, Tenant
from repro.shard.directory import PartitionDirectory, Route
from repro.shard.metrics import FleetMetrics, ShardMetrics
from repro.telemetry import get_recorder

#: Route-cache capacity: bounds router memory at O(cache), not
#: O(tenants ever seen); eviction is FIFO on insertion order, so it is
#: deterministic and O(1).
DEFAULT_ROUTE_CACHE = 65536


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
                 directory: Optional[PartitionDirectory] = None) -> None:
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
        route = self._routes.get(tenant)
        if route is None or route.shard not in self.gateways:
            route = self._refresh(tenant)
        return route

    def _refresh(self, tenant: str) -> Route:
        route = self.directory.locate(tenant)
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

    def route_batch(self, start: int, times: Sequence[float],
                    tenants: Sequence[str],
                    plans: Sequence[Any]) -> dict[str, list[tuple]]:
        """Route a slice of a trace into per-shard op streams.

        Event ``start + i`` is ``tenants[i]`` offering ``plans[i]`` at
        ``times[i]``. Every routing decision is the one
        :meth:`submit` would make for the same events in the same
        order — cache probe, FIFO eviction, fence check, one refresh
        on a stale route — and ``submits``, ``stale_retries``, the
        load window and the fenced gateway's ``stale_rejections``
        advance as they would; only the admissions themselves are left
        to the caller, as ops grouped by shard in event order:

        * ``(now, index, tenant, plan)`` — offer the query here;
        * ``(now, index)`` — this shard fenced the event's stale route
          and the refreshed route led elsewhere: nothing to offer;
        * ``(now, index, tenant, plan, 0)`` — offer the query here, on
          the retry of a route another shard fenced.

        The directory must not change during the call, so the caller
        slices the trace at its control ticks. The route-miss path is
        ``PartitionDirectory.locate`` and ``HashRing.lookup`` written
        out in place: a full replay misses the cache about a million
        times, and the four call frames cost more than the lookup.
        """
        gateways = self.gateways
        fences = {shard: gateways[shard].epoch for shard in gateways}
        streams: dict[str, list[tuple]] = {shard: [] for shard in gateways}
        routes = self._routes
        routes_get = routes.get
        window = self._window
        capacity = self.route_cache_size
        overrides_get = self.directory._overrides.get
        shard_routes = self.directory._shard_routes
        points = self.directory.ring._points
        owner = self.directory.ring._owner
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        stale = 0
        for index, now, tenant, plan in zip(count(start), times, tenants,
                                            plans):
            route = routes_get(tenant)
            if route is None or route[0] not in fences:
                shard = overrides_get(tenant)
                if shard is None:
                    i = bisect_right(points, from_bytes(
                        sha256(tenant.encode("utf-8")).digest()[:8],
                        "little"))
                    if i == len(points):
                        i = 0
                    shard = owner[points[i]]
                route = shard_routes[shard]
                if tenant not in routes and len(routes) >= capacity:
                    routes.popitem(last=False)
                routes[tenant] = route
            else:
                shard = route[0]
            op = (now, index, tenant, plan)
            if route[1] != fences[shard]:
                stale += 1
                gateways[shard].stale_rejections += 1
                fenced = shard
                shard, epoch = self._refresh(tenant)
                if epoch != fences[shard]:
                    raise RuntimeError(
                        f"route of tenant {tenant!r} stale after "
                        f"directory refresh")
                if shard != fenced:
                    streams[fenced].append((now, index))
                    op += (0,)
            streams[shard].append(op)
            window[shard] += 1
        self.submits += len(times)
        self.stale_retries += stale
        if self._telemetry is not None:
            self._submit_counter.inc(len(times))
            self._stale_counter.inc(stale)
        return streams

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
