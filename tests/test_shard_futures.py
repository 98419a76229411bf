"""Futures + sharding interop: admission through the shard router."""

import math

import pytest

from repro.faas import LambdaPlatform
from repro.futures import AdmissionShed, FunctionExecutor
from repro.network import Fabric
from repro.serve.gateway import Tenant
from repro.shard import ShardRouter
from repro.sim import Environment, RandomStreams

LAZY = Tenant(name="__default__", max_queue_depth=math.inf)


def make_env(max_pending=math.inf, tenant="acme"):
    env = Environment()
    fabric = Fabric(env)
    rng = RandomStreams(seed=11)
    platform = LambdaPlatform(env, fabric, rng)
    router = ShardRouter(env, shards=2, max_pending=max_pending,
                         default_tenant=LAZY)
    executor = FunctionExecutor(env, platform, rng, router=router,
                                tenant=tenant)
    return env, router, executor


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def square(context, x):
    yield context.env.timeout(0.01)
    return x * x


def total(context, values):
    yield context.env.timeout(0.001)
    return sum(values)


class TestAdmittedCalls:
    def test_call_holds_shard_capacity_until_done(self):
        env, router, executor = make_env()
        future = executor.call_async(square, 6)
        shard = router.route("acme").shard
        assert router.gateways[shard].external_pending == 1
        assert run(env, executor.get_result(future)) == 36
        env.run()  # let the release process observe completion
        assert router.gateways[shard].external_pending == 0
        assert executor.shed_calls == 0
        # The shard counted the call like any offered-and-served unit.
        assert router.shard_metrics[shard].offered == 1

    def test_external_offers_reach_the_submit_instrument(self):
        """``router.submits`` the instrument counts what the attribute
        counts: admitted external offers too, not only queries."""
        from repro.telemetry import recording

        with recording() as recorder:
            env, router, executor = make_env()
            future = executor.map_reduce(square, [1, 2, 3], total)
            assert run(env, executor.get_result(future)) == 14
            router.submit("acme", 1.0)
        assert router.submits == 5
        assert recorder.metrics.counters["router.submits"].value \
            == router.submits

    def test_map_reduce_routes_every_call(self):
        env, router, executor = make_env()
        future = executor.map_reduce(square, [1, 2, 3], total)
        assert run(env, executor.get_result(future)) == 14
        env.run()
        offered = sum(m.offered for m in router.shard_metrics.values())
        assert offered == 4  # three maps + the reducer
        assert router.pending_total() == 0
        assert router.roll_up().balanced


class TestShedCalls:
    def test_over_bound_calls_are_rejected_not_invoked(self):
        env, router, executor = make_env(max_pending=0)
        future = executor.call_async(square, 5)
        assert future.done
        assert future.state == "error"
        assert executor.shed_calls == 1
        with pytest.raises(AdmissionShed):
            run(env, executor.get_result(future))
        assert len(future.attempts) == 0  # never reached the invoker
        report = router.roll_up().to_dict()
        assert report["shed"] == 1 and report["balanced"]

    def test_admission_shed_is_not_retryable(self):
        assert AdmissionShed("shed").retryable is False

    def test_partial_map_sheds_only_the_overflow(self):
        env, router, executor = make_env(max_pending=1)
        futures = executor.map(square, [2, 3, 4])
        outcomes = []
        for future in futures:
            try:
                outcomes.append(run(env, executor.get_result(future)))
            except AdmissionShed:
                outcomes.append("shed")
        env.run()
        assert "shed" in outcomes
        assert any(isinstance(value, int) for value in outcomes)
        assert executor.shed_calls == outcomes.count("shed")
        assert router.roll_up().balanced


class TestUnrouted:
    def test_executor_without_router_is_unchanged(self):
        env = Environment()
        fabric = Fabric(env)
        rng = RandomStreams(seed=11)
        platform = LambdaPlatform(env, fabric, rng)
        executor = FunctionExecutor(env, platform, rng)
        future = executor.call_async(square, 4)
        assert run(env, executor.get_result(future)) == 16
        assert executor.shed_calls == 0
