"""The replay's oracles: one event at a time, routes cached by name.

``repro.shard`` has one replay loop (``run_replay``), one route cache
(the key-space arrays of ``ShardRouter``) and one admission path
(``ShardRouter.route_batch`` plus the lane). The tests pin each of
them against the plain version kept here:

* :class:`NamedRouter` is the router with its cache keyed by tenant
  name, a FIFO ``OrderedDict``, and a scalar :meth:`NamedRouter.submit`
  that offers one query on its cached route, is fenced when the route's
  epoch is not the shard's (:func:`fenced_submit`), refreshes and
  retries once;
* :func:`run_replay_reference` is the replay one event at a time in
  trace order through that router: advance the routed shard to the
  arrival, offer the query, advance again. Everything but the loop and
  the router is the kernel's own ``_Fabric``; the router is swapped in
  by patching the name ``_Fabric`` builds. About 3.7x slower than the
  kernel.
"""

from __future__ import annotations

from collections import OrderedDict
from unittest import mock

import repro.shard.replay
from repro.shard import router as router_module
from repro.shard.directory import Route
from repro.shard.replay import _TENANT_PREFIX, ReplayResult, _advance, _Fabric
from repro.shard.ring import hash_key
from repro.shard.router import ShardRouter


class StaleEpoch(Exception):
    """A query was routed on an epoch other than its shard's fence."""


def fenced_submit(gateway, tenant: str, plan, epoch: int):
    """Offer a query routed on ``epoch`` to ``gateway``, behind its fence.

    A route of another epoch raises :class:`StaleEpoch` and counts a
    stale rejection *before* the offer is counted, so a routed retry is
    not double-counted as offered traffic.
    """
    if epoch != gateway.epoch:
        gateway.stale_rejections += 1
        raise StaleEpoch(f"shard {gateway.shard_id}: routed on epoch "
                         f"{epoch}, fence is {gateway.epoch}")
    return gateway.submit(tenant, plan)


class NamedRouter(ShardRouter):
    """A :class:`ShardRouter` whose route cache is keyed by name.

    Any tenant name routes; the key space the base class takes is
    ignored and its arrays stay empty. The cache holds
    ``router.ROUTE_CACHE_SIZE`` routes (read when the router is built)
    and evicts the oldest insertion first.
    """

    def __init__(self, env, key_space=None, **kwargs) -> None:
        super().__init__(env, ("", 0), **kwargs)
        self._routes: OrderedDict[str, Route] = OrderedDict()
        self._capacity = router_module.ROUTE_CACHE_SIZE

    def route(self, tenant: str) -> Route:
        """The cached route of a tenant (refreshed when invalid)."""
        route = self._routes.get(tenant)
        if route is None or route.shard not in self.gateways:
            route = self._refresh(tenant)
        return route

    def _refresh(self, tenant: str) -> Route:
        route = self.directory.locate_hash(hash_key(tenant))
        if tenant not in self._routes \
                and len(self._routes) >= self._capacity:
            self._routes.popitem(last=False)
        self._routes[tenant] = route
        return route

    def submit(self, tenant: str, plan):
        """Route one query; returns the queued request or ``None`` if shed."""
        self.submits += 1
        route = self.route(tenant)
        for _ in range(2):
            gateway = self.gateways[route.shard]
            try:
                request = fenced_submit(gateway, tenant, plan, route.epoch)
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


def run_replay_reference(config, observer=None) -> ReplayResult:
    """The event-at-a-time replay ``run_replay`` is pinned against."""
    with mock.patch.object(repro.shard.replay, "ShardRouter", NamedRouter):
        fabric = _Fabric(config, observer)
    router, banks, clock = fabric.router, fabric.banks, fabric.clock
    services = fabric.service.exponential(config.mean_service_s,
                                          size=config.events)
    for index in range(config.events):
        now = float(fabric.times[index])
        while now >= fabric.next_control:
            fabric.control_tick()
        clock.now = now
        tenant = f"{_TENANT_PREFIX}{fabric.ids[index]}"
        shard = router.route(tenant).shard
        _advance(banks[shard], router.gateways[shard], now, *fabric.hook)
        if router.submit(tenant, float(services[index])) is not None:
            # A stale-epoch retry may have re-routed the tenant: the
            # cache is fresh after submit, so re-read the shard.
            shard = router.route(tenant).shard
            _advance(banks[shard], router.gateways[shard], now,
                     *fabric.hook)
    return fabric.finish()
