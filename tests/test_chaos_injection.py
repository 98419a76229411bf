"""Tests for the chaos fault taxonomy, plans, and injector hooks."""

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec, WorkerCrash
from repro.engine.plan import PipelineSpec, TableSource
from repro.network import Fabric
from repro.network.shaper import TokenBucketShaper
from repro.sim import Environment, RandomStreams
from repro.storage import RetryingClient, RetryPolicy, S3Standard
from repro.storage.base import RequestType
from repro.storage.errors import SlowDown
from repro.storage.errors import RequestTimeout as StorageRequestTimeout


def make_injector(*specs, name="test", seed=11):
    plan = FaultPlan(name=name, specs=tuple(specs))
    return FaultInjector(plan, rng=RandomStreams(seed=seed))


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike")

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="worker_crash", probability=1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="worker_crash", probability=-0.1)

    def test_degrade_factor_bounds(self):
        with pytest.raises(ValueError, match="factor"):
            FaultSpec(kind="network_degrade", factor=0.0)
        with pytest.raises(ValueError, match="factor"):
            FaultSpec(kind="network_degrade", factor=1.5)

    def test_window_ordering(self):
        with pytest.raises(ValueError, match="end_s"):
            FaultSpec(kind="worker_crash", start_s=10.0, end_s=5.0)

    def test_window_is_half_open(self):
        spec = FaultSpec(kind="worker_crash", start_s=1.0, end_s=2.0)
        assert not spec.in_window(0.5)
        assert spec.in_window(1.0)
        assert not spec.in_window(2.0)

    def test_make_error_only_for_invoke_kinds(self):
        assert isinstance(FaultSpec(kind="worker_crash").make_error(),
                          WorkerCrash)
        with pytest.raises(ValueError):
            FaultSpec(kind="storage_slowdown").make_error()

    def test_to_dict_is_json_safe(self):
        spec = FaultSpec(kind="worker_crash")
        data = spec.to_dict()
        assert data["end_s"] is None  # inf is not JSON
        assert "max_events" not in data  # unbounded cap omitted


class TestFaultPlanSerialization:
    def test_round_trip_through_json(self):
        plan = FaultPlan(
            name="rt", description="round trip",
            specs=(FaultSpec(kind="worker_crash", probability=0.5,
                             max_events=3),
                   FaultSpec(kind="storage_slowdown", operation="get",
                             start_s=1.0, end_s=9.0)))
        import json
        restored = FaultPlan.from_json(json.dumps(plan.to_dict()))
        assert restored == plan


class TestInjectorScheduling:
    def test_window_filters_injections(self):
        injector = make_injector(
            FaultSpec(kind="storage_slowdown", start_s=10.0, end_s=20.0))
        assert injector.on_storage("get", "k", 5.0) is None
        assert isinstance(injector.on_storage("get", "k", 10.0), SlowDown)
        assert injector.on_storage("get", "k", 20.0) is None

    def test_max_events_caps_a_spec(self):
        injector = make_injector(
            FaultSpec(kind="storage_slowdown", max_events=2))
        hits = [injector.on_storage("get", "k", t) for t in range(5)]
        assert sum(1 for h in hits if h is not None) == 2
        assert injector.total_injected == 2
        assert injector.fault_counts == {"storage_slowdown": 2}

    def test_function_and_pipeline_targeting(self):
        injector = make_injector(
            FaultSpec(kind="worker_crash", function="skyrise-worker",
                      pipeline="scan"))
        scan, final = (PipelineSpec(name, TableSource("lineitem", []))
                       for name in ("scan", "final"))
        miss_fn = injector.on_invoke("skyrise-invoker",
                                     {"pipeline": scan}, 0.0)
        miss_pipe = injector.on_invoke("skyrise-worker",
                                       {"pipeline": final}, 0.0)
        hit = injector.on_invoke("skyrise-worker",
                                 {"pipeline": scan, "fragment": 3}, 0.0)
        assert miss_fn is None and miss_pipe is None
        assert hit is not None and hit.kind == "worker_crash"
        # The timeline names the struck fragment.
        assert injector.timeline()[0]["target"] == "skyrise-worker/frag-3"

    def test_key_prefix_and_operation_targeting(self):
        injector = make_injector(
            FaultSpec(kind="storage_timeout", operation="put",
                      key_prefix="shuffle/"))
        assert injector.on_storage("get", "shuffle/x", 0.0) is None
        assert injector.on_storage("put", "data/x", 0.0) is None
        assert isinstance(injector.on_storage("put", "shuffle/x", 0.0),
                          StorageRequestTimeout)

    def test_on_place_returns_degradation_factor(self):
        injector = make_injector(
            FaultSpec(kind="network_degrade", factor=0.25, max_events=1))
        assert injector.on_place("skyrise-worker", 0.0) == 0.25
        assert injector.on_place("skyrise-worker", 1.0) is None

    def test_probabilistic_draws_are_seed_deterministic(self):
        spec = FaultSpec(kind="storage_slowdown", probability=0.5)

        def decisions(seed):
            injector = make_injector(spec, seed=seed)
            return [injector.on_storage("get", "k", float(t)) is not None
                    for t in range(64)]

        first = decisions(seed=21)
        assert first == decisions(seed=21)
        assert first != decisions(seed=22)
        assert any(first) and not all(first)


class TestStorageInjection:
    @pytest.fixture
    def stack(self):
        env = Environment()
        fabric = Fabric(env)
        rng = RandomStreams(seed=7)
        s3 = S3Standard(env, fabric, rng)
        return env, rng, s3

    def run(self, env, gen):
        proc = env.process(gen)
        env.run(until=proc)
        return proc.value

    def test_injected_slowdowns_retried_by_client(self, stack):
        env, rng, s3 = stack
        self.run(env, s3.put("k", b"v"))
        client = RetryingClient(
            env, s3, RetryPolicy(request_timeout=60.0, backoff_base=0.05))
        injector = make_injector(
            FaultSpec(kind="storage_slowdown", operation="get",
                      max_events=2))
        injector.install(clients=[client])
        obj = self.run(env, client.get("k"))
        # Two injected 503s were absorbed by the client's normal
        # retry/backoff machinery, then the third attempt succeeded.
        assert obj.payload == b"v"
        assert client.stats.attempts == 3
        assert client.stats.throttles == 2
        assert client.stats.successes == 1
        assert client.stats.backoff_time == pytest.approx(0.05 + 0.10)

    def test_service_hook_counts_injected_faults(self, stack):
        env, rng, s3 = stack
        self.run(env, s3.put("k", b"v"))
        injector = make_injector(
            FaultSpec(kind="storage_slowdown", operation="get",
                      max_events=1))
        injector.install(services=[s3])

        def attempt(env):
            try:
                yield from s3.get("k")
            except SlowDown:
                return "slowed"

        assert self.run(env, attempt(env)) == "slowed"
        # Billed like a real request that reached the frontend.
        assert s3.stats.counts[("get", "injected-fault")] == 1
        obj = self.run(env, s3.get("k"))
        assert obj.payload == b"v"

    def test_idle_injector_changes_nothing(self, stack):
        env, rng, s3 = stack
        injector = make_injector(
            FaultSpec(kind="storage_slowdown", function="skyrise-worker",
                      start_s=1e9))
        injector.install(services=[s3])
        self.run(env, s3.put("k", b"v"))
        obj = self.run(env, s3.get("k"))
        assert obj.payload == b"v"
        assert injector.total_injected == 0
        assert s3.stats.total(RequestType.GET, "injected-fault") == 0


class TestShaperDegrade:
    def test_degrade_scales_both_rates(self):
        shaper = TokenBucketShaper(capacity=100.0, burst_rate=40.0,
                                   refill_rate=8.0, mode="continuous",
                                   initial_level=100.0)
        shaper.degrade(0.25)
        assert shaper.burst_rate == pytest.approx(10.0)
        assert shaper.refill_rate == pytest.approx(2.0)

    def test_degrade_rejects_bad_factors(self):
        shaper = TokenBucketShaper(capacity=100.0, burst_rate=40.0,
                                   refill_rate=8.0, mode="continuous",
                                   initial_level=100.0)
        with pytest.raises(ValueError):
            shaper.degrade(0.0)
        with pytest.raises(ValueError):
            shaper.degrade(1.5)
