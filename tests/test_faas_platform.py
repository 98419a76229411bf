"""Tests for the FaaS platform simulator."""

import pytest

from repro import units
from repro.faas import (
    ConcurrencyScaler,
    FunctionConfig,
    LambdaPlatform,
    REGIONS,
)
from repro.faas.platform import IDLE_LIFETIME_MEDIAN_S
from repro.network import Fabric
from repro.sim import Environment, RandomStreams


def noop_handler(context, payload):
    """A minimal function: returns its payload untouched."""
    yield context.env.timeout(0.001)
    return payload


def make_platform(region="us-east-1", quota=1_000):
    env = Environment()
    fabric = Fabric(env)
    rng = RandomStreams(seed=11)
    platform = LambdaPlatform(env, fabric, rng, region=region,
                              account_quota=quota)
    platform.deploy(FunctionConfig(name="noop", handler=noop_handler))
    return env, platform


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


class TestFunctionConfig:
    def test_vcpus_follow_memory(self):
        config = FunctionConfig(name="f", handler=noop_handler,
                                memory_bytes=7_076 * units.MiB)
        assert config.vcpus == pytest.approx(4.0, rel=0.01)

    def test_memory_bounds_validated(self):
        with pytest.raises(ValueError):
            FunctionConfig(name="f", handler=noop_handler,
                           memory_bytes=64 * units.MiB)
        with pytest.raises(ValueError):
            FunctionConfig(name="f", handler=noop_handler,
                           memory_bytes=20 * units.GiB)


class TestInvocation:
    def test_first_invocation_is_cold(self):
        env, platform = make_platform()
        record = run(env, platform.invoke("noop", {"x": 1}))
        assert record.cold
        assert record.response == {"x": 1}
        assert record.error is None

    def test_second_invocation_is_warm_and_faster(self):
        env, platform = make_platform()
        first = run(env, platform.invoke("noop"))
        second = run(env, platform.invoke("noop"))
        assert not second.cold
        assert second.init_duration < first.init_duration
        # Coldstarts for small binaries are hundreds of ms; warmstarts
        # tens of ms.
        assert first.init_duration > 0.08
        assert second.init_duration < 0.04

    def test_invoking_unknown_function_raises(self):
        env, platform = make_platform()
        with pytest.raises(KeyError, match="not deployed"):
            run(env, platform.invoke("ghost"))

    def test_handler_error_recorded_and_raised(self):
        env, platform = make_platform()

        def failing(context, payload):
            yield context.env.timeout(0.001)
            raise RuntimeError("handler blew up")

        platform.deploy(FunctionConfig(name="bad", handler=failing))

        def scenario(env):
            try:
                yield from platform.invoke("bad")
            except RuntimeError as exc:
                return str(exc)

        assert run(env, scenario(env)) == "handler blew up"
        assert platform.records[-1].error is not None

    def test_async_invocation_adds_polling_latency(self):
        env, platform = make_platform()
        sync = run(env, platform.invoke("noop"))
        # Warm the pool, then compare warm sync vs warm async.
        warm_sync = run(env, platform.invoke("noop"))
        warm_async = run(env, platform.invoke_async("noop"))
        assert warm_async.finished_at - warm_async.requested_at \
            > warm_sync.finished_at - warm_sync.requested_at
        del sync

    def test_sandbox_reuse_tracks_invocations(self):
        env, platform = make_platform()
        first = run(env, platform.invoke("noop"))
        second = run(env, platform.invoke("noop"))
        assert first.sandbox_id == second.sandbox_id

    def test_sandbox_expires_after_idle_lifetime(self):
        env, platform = make_platform()
        run(env, platform.invoke("noop"))

        def later(env):
            # Far beyond any sampled idle lifetime.
            yield env.timeout(IDLE_LIFETIME_MEDIAN_S * 50)
            record = yield from platform.invoke("noop")
            return record

        record = run(env, later(env))
        assert record.cold

    def test_concurrent_invocations_use_distinct_sandboxes(self):
        env, platform = make_platform()

        def slow(context, payload):
            yield context.env.timeout(1.0)
            return context.sandbox_id

        platform.deploy(FunctionConfig(name="slow", handler=slow))

        def scenario(env):
            procs = [env.process(platform.invoke("slow")) for _ in range(5)]
            records = []
            for proc in procs:
                records.append((yield proc))
            return records

        records = run(env, scenario(env))
        sandbox_ids = {record.sandbox_id for record in records}
        assert len(sandbox_ids) == 5

    def test_warm_reuse_makes_linear_expiry_checks(self, monkeypatch):
        """N sequential invocations over a pool of N idle sandboxes check
        expiry at most 2N times (a full filter per assignment is N²)."""
        from repro.faas.sandbox import Sandbox

        env, platform = make_platform()
        n = 40

        def slow(context, payload):
            yield context.env.timeout(1.0)
            return context.sandbox_id

        platform.deploy(FunctionConfig(name="slow", handler=slow))

        def fill(env):
            procs = [env.process(platform.invoke("slow")) for _ in range(n)]
            for proc in procs:
                yield proc

        run(env, fill(env))
        checks = []
        expired = Sandbox.expired

        def counted(sandbox, now):
            checks.append(sandbox.id)
            return expired(sandbox, now)

        monkeypatch.setattr(Sandbox, "expired", counted)

        def sequential(env):
            records = []
            for _ in range(n):
                records.append((yield from platform.invoke("slow")))
            return records

        records = run(env, sequential(env))
        assert not any(record.cold for record in records)
        assert len(checks) <= 2 * n

    def test_sandboxes_are_numbered_per_platform(self):
        firsts = []
        for _ in range(2):
            env, platform = make_platform()
            firsts.append(run(env, platform.invoke("noop")).sandbox_id)
        assert firsts == [0, 0]

    def test_region_multiplier_slows_coldstarts(self):
        env_us, us = make_platform("us-east-1")
        env_eu, eu = make_platform("eu-west-1")
        cold_us = run(env_us, us.invoke("noop")).init_duration
        cold_eu = run(env_eu, eu.invoke("noop")).init_duration
        # EU coldstarts are ~1.5x slower; jitter can blur a single sample,
        # so compare with slack.
        assert cold_eu > cold_us


class TestConcurrencyScaling:
    def test_allowance_starts_at_burst(self):
        scaler = ConcurrencyScaler(burst_limit=3_000, account_quota=10_000)
        assert scaler.allowance(0.0) == 3_000

    def test_ramp_grows_at_500_per_minute(self):
        scaler = ConcurrencyScaler(burst_limit=3_000, account_quota=10_000)
        scaler.note_demand(3_000, now=0.0)
        assert scaler.allowance(60.0) == 3_500
        assert scaler.allowance(300.0) == 5_500

    def test_allowance_capped_at_quota(self):
        scaler = ConcurrencyScaler(burst_limit=3_000, account_quota=4_000)
        scaler.note_demand(4_000, now=0.0)
        assert scaler.allowance(3_600.0) == 4_000

    def test_ramp_resets_when_load_subsides(self):
        scaler = ConcurrencyScaler(burst_limit=3_000, account_quota=10_000)
        scaler.note_demand(3_000, now=0.0)
        assert scaler.allowance(60.0) == 3_500
        scaler.note_demand(10, now=61.0)
        assert scaler.allowance(120.0) == 3_000

    def test_quota_limits_platform_concurrency(self):
        env, platform = make_platform(quota=3)

        def slow(context, payload):
            yield context.env.timeout(10.0)

        platform.deploy(FunctionConfig(name="slow", handler=slow))

        def scenario(env):
            procs = [env.process(platform.invoke("slow")) for _ in range(4)]
            yield env.timeout(5.0)
            running = platform._busy
            for proc in procs:
                yield proc
            return running

        running_mid = run(env, scenario(env))
        assert running_mid == 3


class TestRegions:
    def test_known_regions_present(self):
        assert set(REGIONS) == {"us-east-1", "eu-west-1", "ap-northeast-1"}

    def test_congestion_factor_positive_unit_scale(self):
        import numpy as np
        rng = np.random.default_rng(0)
        profile = REGIONS["us-east-1"]
        draws = [profile.congestion(rng, now=0.0, warm=False)
                 for _ in range(2_000)]
        assert all(d > 0 for d in draws)
        assert sum(draws) / len(draws) == pytest.approx(1.0, rel=0.05)

    def test_cold_variability_exceeds_warm_in_us(self):
        profile = REGIONS["us-east-1"]
        assert profile.cold_cov > profile.warm_cov


class TestAsyncInvocation:
    """Regression coverage for the async invocation path."""

    def test_async_error_captured_on_record_not_raised(self):
        env, platform = make_platform()

        def failing(context, payload):
            yield context.env.timeout(0.001)
            raise RuntimeError("handler blew up")

        platform.deploy(FunctionConfig(name="bad", handler=failing))
        record = run(env, platform.invoke_async("bad"))
        assert isinstance(record.error, RuntimeError)
        assert record.error is not None
        assert record.response is None

    def test_fire_and_forget_failure_does_not_crash_kernel(self):
        env, platform = make_platform()

        def failing(context, payload):
            yield context.env.timeout(0.001)
            raise RuntimeError("nobody is watching")

        platform.deploy(FunctionConfig(name="bad", handler=failing))
        # Launch without awaiting: the failure must be absorbed into
        # the record, never surfacing as an unwatched process crash.
        env.process(platform.invoke_async("bad"))

        def bystander(env):
            yield env.timeout(5.0)
            return "alive"

        assert run(env, bystander(env)) == "alive"
        assert platform.records[-1].error is not None

    def test_out_of_order_completion_records_by_finish_time(self):
        env, platform = make_platform()

        def napper(context, payload):
            yield context.env.timeout(payload["sleep_s"])
            return payload["tag"]

        platform.deploy(FunctionConfig(name="nap", handler=napper))

        def scenario(env):
            procs = [env.process(platform.invoke_async(
                "nap", {"sleep_s": sleep, "tag": tag}))
                for tag, sleep in (("slow", 0.6), ("fast", 0.1),
                                   ("mid", 0.3))]
            records = []
            for proc in procs:
                record = yield proc
                records.append(record)
            return records

        records = run(env, scenario(env))
        # Each caller gets its own record with the right response...
        assert [r.response for r in records] == ["slow", "fast", "mid"]
        # ...while the platform log is ordered by completion time.
        logged = [r.response for r in platform.records]
        assert logged == ["fast", "mid", "slow"]
        finishes = [r.finished_at for r in platform.records]
        assert finishes == sorted(finishes)


class TestSandboxLossReclamation:
    def test_lost_sandbox_never_returns_to_warm_pool(self):
        from repro.chaos import FaultInjector, FaultPlan, FaultSpec
        from repro.sim import RandomStreams as Streams

        env, platform = make_platform()

        def slow(context, payload):
            yield context.env.timeout(1.0)
            return "done"

        platform.deploy(FunctionConfig(name="slow", handler=slow))
        plan = FaultPlan(
            name="one-loss",
            specs=(FaultSpec(kind="sandbox_loss", function="slow",
                             probability=1.0, after_s=0.1,
                             max_events=1),))
        FaultInjector(plan, Streams(seed=5)).install(platform=platform)

        first = run(env, platform.invoke_async("slow"))
        assert first.error is not None  # reclaimed mid-flight
        # The reclaimed sandbox must not serve a warm start: the next
        # invocation lands on fresh infrastructure.
        second = run(env, platform.invoke("slow"))
        assert second.cold
        assert second.sandbox_id != first.sandbox_id
        assert second.error is None
