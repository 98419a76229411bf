"""Shard-router tests: routing, the cache, fencing, O(1) hot path."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.gateway import QueryGateway, Tenant
from repro.shard import ShardRouter
from repro.shard import router as router_module
from repro.shard.replay import ManualClock, ScanGuard
from repro.shard.router import FENCED, OFFER, RETRY

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


# -- route_batch: the keyed router against the OrderedDict router -------------

KEYS = 240  # key space of the differential: tenants t0 .. t239

_SLICE = st.tuples(st.just("slice"), st.sampled_from(["uniform", "pareto"]),
                   st.integers(min_value=0, max_value=160),
                   st.integers(min_value=0, max_value=2**32 - 1))
_MUTATION = st.tuples(st.sampled_from(["split", "merge", "fail", "add"]),
                      st.integers(min_value=0, max_value=7))
_TOUCH = st.tuples(st.sampled_from(["route", "refresh"]),
                   st.integers(min_value=0, max_value=KEYS - 1))


def _draw_keys(law, count, seed):
    rng = np.random.default_rng(seed)
    if law == "uniform":
        return rng.integers(0, KEYS, size=count)
    return np.minimum(rng.pareto(1.1, size=count) * 4, KEYS - 1) \
        .astype(np.int64)


def _mutate(router, action, pick):
    """One control-plane move, the same on both routers (or none)."""
    shards = router.shards()
    shard = shards[pick % len(shards)]
    if action == "add":
        router.add_shard()
    elif action == "split":
        if router.directory.can_split(shard):
            router.split_shard(shard)
    elif len(shards) > 1:
        if action == "fail":
            router.fail_shard(shard)
        else:
            router.merge_shard(shard, shards[(pick + 1) % len(shards)])


def _submit_slice(router, start, times, keys, plans):
    """The op streams the scalar ``submit`` implies, event by event."""
    streams = {}
    for offset, (now, key, plan) in enumerate(zip(times, keys, plans)):
        name = f"t{key}"
        rejections = {shard: gateway.stale_rejections
                      for shard, gateway in router.gateways.items()}
        assert router.submit(name, plan) is not None
        # Just refreshed or inserted, so this read cannot touch the cache.
        owner = router.route(name).shard
        fenced = [shard for shard, gateway in router.gateways.items()
                  if gateway.stale_rejections != rejections[shard]]
        kind = OFFER
        if fenced and fenced != [owner]:
            streams.setdefault(fenced[0], []).append(
                (now, start + offset, key, plan, FENCED))
            kind = RETRY
        streams.setdefault(owner, []).append(
            (now, start + offset, key, plan, kind))
    return streams


def _offer_streams(router, streams):
    """Perform a batch's admissions; returns the streams as row lists."""
    rows = {}
    for shard, (times, indices, keys, plans, kinds) in streams.items():
        kinds = [OFFER] * len(keys) if kinds is None else kinds.tolist()
        rows[shard] = list(zip(times.tolist(), indices.tolist(),
                               keys.tolist(), plans.tolist(), kinds))
        for _now, _index, key, plan, kind in rows[shard]:
            if kind != FENCED:
                assert router.gateways[shard].submit(f"t{key}", plan) \
                    is not None
    return rows


def _state(router):
    cache = list(router._routes.items()) if router._keyed is None \
        else router._keyed.cached()
    return {
        "cache": cache,
        "window": dict(router._window),
        "counters": (router.submits, router.stale_retries, router.migrated),
        "gateways": {shard: (gateway.stale_rejections, gateway.total_pending)
                     for shard, gateway in router.gateways.items()},
    }


class TestRouteBatch:
    @given(capacity=st.integers(min_value=1, max_value=64),
           blocks_per_cache=st.sampled_from([1, 2, 16]),
           shards=st.integers(min_value=1, max_value=4),
           steps=st.lists(st.one_of(_SLICE, _SLICE, _MUTATION, _TOUCH),
                          min_size=1, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_keyed_batches_decide_what_scalar_submits_decide(
            self, capacity, blocks_per_cache, shards, steps):
        """Random key streams (slices longer than the cache), control
        moves and scalar touches between them: the keyed router's
        batches and the ``OrderedDict`` router's submits leave the same
        op streams, counters, window, fences and cache — membership
        *and* FIFO order — at every block size up to the whole cache,
        where every cached key is at risk."""
        keyed = make_router(shards=shards, route_cache_size=capacity,
                            key_space=("t", KEYS))
        plain = make_router(shards=shards, route_cache_size=capacity)
        with mock.patch.object(router_module, "_BLOCKS_PER_CACHE",
                               blocks_per_cache):
            self._drive(keyed, plain, steps)

    @staticmethod
    def _drive(keyed, plain, steps):
        start = 0
        for step in steps:
            if step[0] == "slice":
                keys = _draw_keys(*step[1:])
                times = np.linspace(start, start + 0.5, len(keys))
                plans = np.full(len(keys), 0.25)
                expected = _submit_slice(plain, start, times.tolist(),
                                         keys.tolist(), plans.tolist())
                streams = keyed.route_batch(start, times, keys, plans)
                assert _offer_streams(keyed, streams) == expected
                start += len(keys)
            elif step[0] in ("route", "refresh"):
                for router in (keyed, plain):
                    method = router.route if step[0] == "route" \
                        else router._refresh
                    method(f"t{step[1]}")
            else:
                for router in (keyed, plain):
                    _mutate(router, *step)
            assert _state(keyed) == _state(plain)

    def test_a_split_behind_warm_caches_fences_and_moves(self):
        """The property's rare branch, pinned: stale routes are fenced
        once each, and the moved ones leave a FENCED op behind."""
        keyed = make_router(shards=2, key_space=("t", 400))
        keys = np.arange(400)
        times, plans = np.full(400, 0.5), np.ones(400)
        keyed.route_batch(0, times, keys, plans)
        hot = keyed.shards()[0]
        keyed.split_shard(hot)
        streams = keyed.route_batch(400, times, keys, plans)
        kinds = {shard: columns[4] for shard, columns in streams.items()}
        assert keyed.stale_retries > 0
        assert keyed.stale_retries \
            == keyed.gateways[hot].stale_rejections
        moved = int((kinds[hot] == FENCED).sum())
        assert 0 < moved < keyed.stale_retries
        assert sum(int((column == RETRY).sum())
                   for column in kinds.values() if column is not None) \
            == moved
        # Fences now current: the same slice again meets no stale route.
        again = keyed.route_batch(800, times, keys, plans)
        assert all(columns[4] is None for columns in again.values())

    def test_pinned_tenants_take_the_named_path(self):
        """An override makes the directory, not the ring, the owner."""
        keyed = make_router(shards=3, key_space=("t", 50))
        home = keyed.directory.locate("t7").shard
        away = next(s for s in keyed.shards() if s != home)
        keyed.directory.pin("t7", away)
        keyed._sync_fences()
        streams = keyed.route_batch(0, np.zeros(50), np.arange(50),
                                    np.ones(50))
        assert 7 in streams[away][2].tolist()
        assert keyed.submits == 50 and sum(keyed._window.values()) == 50

    def test_a_fence_out_of_step_with_the_directory_still_raises(self):
        """``submit``'s bounded retry, kept: a fresh route that is
        fenced is an error, not a loop and not a silent admission."""
        keyed = make_router(shards=2, key_space=("t", 40))
        keyed.gateways[keyed.shards()[0]].epoch += 1
        with pytest.raises(RuntimeError, match="stale after directory"):
            keyed.route_batch(0, np.zeros(40), np.arange(40), np.ones(40))

    def test_needs_a_key_space_and_names_inside_it(self):
        with pytest.raises(TypeError):
            make_router().route_batch(0, np.zeros(1), np.zeros(1, int),
                                      np.ones(1))
        keyed = make_router(key_space=("t", 10))
        assert keyed.route("t9").shard in keyed.gateways
        for name in ("t10", "t07", "u1", "t", "t-1"):
            with pytest.raises(KeyError):
                keyed.route(name)


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
