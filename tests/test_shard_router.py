"""Shard-router tests: routing, the cache, fencing, O(1) hot path."""

import math

import pytest

from repro.serve.gateway import QueryGateway, Tenant
from repro.shard import ShardRouter
from repro.shard.replay import ManualClock, ScanGuard

LAZY = Tenant(name="__default__", max_queue_depth=math.inf)


def make_router(shards=3, **kwargs):
    kwargs.setdefault("default_tenant", LAZY)
    return ShardRouter(ManualClock(), shards=shards, **kwargs)


def tenant_on(router, shard, start=0):
    """Some tenant the directory maps to ``shard``."""
    for index in range(start, start + 100_000):
        name = f"t{index}"
        if router.directory.locate(name).shard == shard:
            return name
    raise AssertionError(f"no tenant found for {shard}")


class TestRouting:
    def test_submit_lands_on_the_routed_shard(self):
        router = make_router()
        for index in range(50):
            tenant = f"t{index}"
            shard = router.route(tenant).shard
            request = router.submit(tenant, 1.0)
            assert request is not None
            assert router.gateways[shard].pending(tenant) >= 1

    def test_route_cache_is_bounded(self):
        router = make_router(route_cache_size=8)
        for index in range(100):
            router.route(f"t{index}")
        assert len(router._routes) <= 8
        # Evicted tenants still route, via a directory refresh.
        assert router.route("t0").shard in router.gateways

    def test_rejects_nonpositive_cache(self):
        with pytest.raises(ValueError):
            make_router(route_cache_size=0)

    def test_stale_cached_route_is_fenced_and_retried(self):
        """A route cached before a split is rejected by the epoch fence;
        the router refreshes and the submission still lands exactly once."""
        router = make_router(shards=2)
        hot = router.shards()[0]
        tenant = tenant_on(router, hot)
        router.route(tenant)  # warm the cache at the pre-split epoch
        router.split_shard(hot)
        before = router.stale_retries
        request = router.submit(tenant, 1.0)
        assert request is not None
        assert router.stale_retries == before + 1
        owner = router.route(tenant).shard
        assert router.gateways[owner].pending(tenant) == 1
        assert router.roll_up().to_dict()["offered"] == 1

    def test_route_batch_decides_what_submit_decides(self):
        """Two identical routers, a split behind warm caches: the batch
        leaves the cache, load window, counters and fenced gateways as
        the scalar path does, and its ops name who gets the offer."""
        batch, scalar = make_router(shards=2), make_router(shards=2)
        tenants = [f"t{index}" for index in range(400)]
        for router in (batch, scalar):
            for tenant in tenants:
                router.route(tenant)
            router.split_shard(router.shards()[0])
        for tenant in tenants:
            scalar.submit(tenant, 1.0)
        streams = batch.route_batch(7, [0.5] * 400, tenants, [1.0] * 400)

        assert batch._routes == scalar._routes
        assert batch._window == scalar._window
        assert (batch.submits, batch.stale_retries) \
            == (scalar.submits, scalar.stale_retries)
        assert batch.stale_retries > 0
        for shard, ops in streams.items():
            gateway = scalar.gateways[shard]
            assert batch.gateways[shard].stale_rejections \
                == gateway.stale_rejections
            offered = [op[2] for op in ops if len(op) != 2]
            assert len(offered) == gateway.total_pending
            assert all(scalar.route(tenant).shard == shard
                       for tenant in offered)
        by_index = sorted(op[:2] + (shard, len(op))
                          for shard, ops in streams.items() for op in ops)
        moved = [row for row in by_index if row[3] != 4]
        assert moved and {row[3] for row in moved} == {2, 5}
        assert [row[1] for row in by_index if row[3] != 2] \
            == list(range(7, 407))

    def test_lazy_tenants_leave_no_resident_state(self):
        """Queues of never-registered tenants vanish once drained."""
        router = make_router()
        for index in range(200):
            router.submit(f"t{index}", 1.0)
        assert router.pending_total() == 200
        for shard in router.shards():
            gateway = router.gateways[shard]
            while gateway.total_pending:
                gateway.pop(gateway.backlogged()[0])
        assert router.pending_total() == 0
        assert all(not router.gateways[shard].queues
                   for shard in router.shards())


class TestRollUp:
    def test_roll_up_reconciles_offered_against_all_outcomes(self):
        router = make_router(shards=2, max_pending=10)
        for index in range(15):
            router.submit(f"t{index}", 1.0)
        report = router.roll_up()
        data = report.to_dict()
        assert report.balanced
        assert data["offered"] == 15
        assert data["offered"] == data["completed"] + data["shed"] \
            + data["failed"] + data["pending"]
        assert data["shed"] >= 0 and data["pending"] <= 15

    def test_fail_shard_recovers_every_admitted_query(self):
        router = make_router(shards=3)
        for index in range(120):
            router.submit(f"t{index}", 1.0)
        admitted = router.pending_total()
        victim = max(router.shards(),
                     key=lambda s: router.gateways[s].total_pending)
        orphans = router.fail_shard(victim)
        assert orphans > 0
        assert victim not in router.gateways
        # Nothing was lost: the backlog moved, the roll-up reconciles.
        assert router.pending_total() == admitted
        assert router.fleet.recovered_requests == orphans
        assert router.roll_up().balanced

    def test_merge_shard_recovers_the_cold_backlog(self):
        router = make_router(shards=3)
        for index in range(90):
            router.submit(f"t{index}", 1.0)
        admitted = router.pending_total()
        cold, target = router.shards()[0], router.shards()[1]
        router.merge_shard(cold, target)
        assert cold not in router.gateways
        assert router.pending_total() == admitted
        assert router.roll_up().balanced

    def test_retired_shards_stay_in_the_roll_up(self):
        router = make_router(shards=2)
        tenant = tenant_on(router, router.shards()[0])
        router.submit(tenant, 1.0)
        dead = router.route(tenant).shard
        other = next(s for s in router.shards() if s != dead)
        # Complete nothing; fail the shard; its offered count survives.
        router.fail_shard(dead)
        assert dead in router.shard_metrics
        assert router.roll_up().to_dict()["offered"] == 1
        assert other in router.gateways


class TestExternalAdmission:
    def test_offer_external_holds_and_releases_capacity(self):
        router = make_router(shards=2, max_pending=2)
        release = router.offer_external("t1")
        assert release is not None
        shard = router.route("t1").shard
        assert router.gateways[shard].external_pending == 1
        release()
        assert router.gateways[shard].external_pending == 0

    def test_offer_external_sheds_at_the_bound(self):
        router = make_router(shards=1, max_pending=1)
        assert router.offer_external("t1") is not None
        assert router.offer_external("t2") is None
        report = router.roll_up().to_dict()
        assert report["shed"] == 1


class TestGatewayHotPathIsTenantCountFree:
    def test_no_full_scans_across_submit_pop_and_introspection(self):
        """Regression: admission, dispatch, and the load probes must
        never iterate the tenant-keyed dicts (O(total tenants))."""
        clock = ManualClock()
        gateway = QueryGateway(clock, shard_id="s0", default_tenant=LAZY)
        for index in range(64):
            gateway.register(Tenant(name=f"reg{index}"))
        gateway.queues = ScanGuard(gateway.queues)
        gateway.tenants = ScanGuard(gateway.tenants)
        for index in range(500):
            clock.now = float(index)
            assert gateway.submit(f"t{index % 90}", 1.0) is not None
            gateway.pending(f"t{index % 90}")
            _ = gateway.total_pending
            _ = gateway.load
        while gateway.total_pending:
            name = gateway.backlogged()[0]
            gateway.head(name)
            gateway.pop(name)
        assert gateway.queues.full_scans == 0
        assert gateway.tenants.full_scans == 0
