"""Partition-directory tests: epochs, routes, and the stale-route fence."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.gateway import QueryGateway, StaleEpoch, Tenant
from repro.shard.directory import PartitionDirectory

TENANTS = [f"t{i}" for i in range(200)]


class _Clock:
    now = 0.0


def lazy_gateway(shard):
    return QueryGateway(
        _Clock(), shard_id=shard,
        default_tenant=Tenant(name="__default__",
                              max_queue_depth=math.inf))


class TestEpochs:
    def test_every_mutation_bumps_the_global_epoch_once(self):
        directory = PartitionDirectory(shards=3)
        epoch = directory.epoch
        directory.add_shard()
        assert directory.epoch == epoch + 1
        new = directory.split_shard(directory.shards()[0])
        assert directory.epoch == epoch + 2
        directory.merge_shard(new, directory.shards()[0])
        assert directory.epoch == epoch + 3
        directory.fail_shard(directory.shards()[-1])
        assert directory.epoch == epoch + 4

    def test_split_advances_both_halves(self):
        directory = PartitionDirectory(shards=2)
        hot = directory.shards()[0]
        cold = directory.shards()[1]
        cold_epoch = directory.shard_epoch(cold)
        new = directory.split_shard(hot)
        assert directory.shard_epoch(hot) == directory.epoch
        assert directory.shard_epoch(new) == directory.epoch
        # The untouched shard's fence did not move.
        assert directory.shard_epoch(cold) == cold_epoch

    def test_locate_embeds_the_shards_current_epoch(self):
        directory = PartitionDirectory(shards=3)
        for tenant in TENANTS:
            route = directory.locate(tenant)
            assert route.shard in directory.shards()
            assert route.epoch == directory.shard_epoch(route.shard)

    def test_fail_shard_bumps_the_heirs(self):
        directory = PartitionDirectory(shards=4)
        dead = directory.shards()[1]
        heirs = directory.fail_shard(dead)
        assert heirs and dead not in directory.shards()
        for heir in heirs:
            assert directory.shard_epoch(heir) == directory.epoch

    def test_pin_and_unpin_override_the_ring(self):
        directory = PartitionDirectory(shards=3)
        tenant = "t-pinned"
        natural = directory.locate(tenant).shard
        other = next(shard for shard in directory.shards()
                     if shard != natural)
        directory.pin(tenant, other)
        assert directory.locate(tenant).shard == other
        directory.unpin(tenant)
        assert directory.locate(tenant).shard == natural
        with pytest.raises(KeyError):
            directory.pin(tenant, "no-such-shard")

    def test_merge_rewrites_pins_and_failure_releases_them(self):
        directory = PartitionDirectory(shards=3)
        a, b, c = directory.shards()
        directory.pin("t-a", a)
        directory.merge_shard(a, b)
        assert directory.locate("t-a").shard == b
        directory.pin("t-b", b)
        directory.fail_shard(b)
        assert directory.locate("t-b").shard in directory.shards()
        assert "t-b" not in directory.overrides()


class TestStaleRouteFence:
    @given(ops=st.lists(st.sampled_from(["add", "split", "merge", "fail"]),
                        min_size=1, max_size=8),
           tenant_id=st.integers(min_value=0, max_value=9999))
    @settings(max_examples=40, deadline=None)
    def test_mutated_shards_fence_out_pre_mutation_routes(self, ops,
                                                          tenant_id):
        """Any mutation sequence: a route whose shard's epoch moved is
        rejected by the fence, and a freshly located route is admitted."""
        directory = PartitionDirectory(shards=3)
        gateways = {shard: lazy_gateway(shard)
                    for shard in directory.shards()}
        tenant = f"t{tenant_id}"
        stale = directory.locate(tenant)

        for op in ops:
            shards = directory.shards()
            if op == "add":
                gateways[directory.add_shard()] = None
            elif op == "split" and directory.can_split(shards[0]):
                gateways[directory.split_shard(shards[0])] = None
            elif op == "merge" and len(shards) > 1:
                directory.merge_shard(shards[0], shards[1])
            elif op == "fail" and len(shards) > 1:
                directory.fail_shard(shards[-1])
        for shard in directory.shards():
            if gateways.get(shard) is None:
                gateways[shard] = lazy_gateway(shard)
            gateways[shard].epoch = directory.shard_epoch(shard)

        if stale.shard in directory.shards() \
                and directory.shard_epoch(stale.shard) != stale.epoch:
            with pytest.raises(StaleEpoch):
                gateways[stale.shard].submit(tenant, 1.0,
                                             epoch=stale.epoch)
            assert gateways[stale.shard].stale_rejections == 1

        fresh = directory.locate(tenant)
        request = gateways[fresh.shard].submit(tenant, 1.0,
                                               epoch=fresh.epoch)
        assert request is not None
