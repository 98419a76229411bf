"""Tests for the serving layer: policies, quotas, shedding, warm pools."""

import pytest

from repro import units
from repro.core import CloudSim
from repro.faas.function import FunctionConfig
from repro.serve import (
    ConcurrencyGovernor,
    QueryGateway,
    QueryScheduler,
    Tenant,
    TenantWorkload,
    WarmPoolManager,
    default_tenant_mix,
    make_policy,
    run_serving_workload,
)
from repro.sim import Environment


class FakeResult:
    def __init__(self, label, runtime):
        self.query_id = label
        self.runtime = runtime
        self.cost_cents = runtime  # 1 cent per second, keeps math easy


class FakeEngine:
    """Engine stand-in: fixed-duration queries, concurrency tracking."""

    def __init__(self, env, duration=1.0):
        self.env = env
        self.duration = duration
        self.started = []
        self.concurrent = 0
        self.peak_concurrent = 0

    def run_query(self, plan):
        self.started.append(plan)
        self.concurrent += 1
        self.peak_concurrent = max(self.peak_concurrent, self.concurrent)
        yield self.env.timeout(self.duration)
        self.concurrent -= 1
        return FakeResult(str(plan), self.duration)


def serve_all(env, scheduler):
    """Run the simulation until the scheduler drains."""
    def scenario(e):
        scheduler.start()
        yield scheduler.drained()
    process = env.process(scenario(env))
    env.run(until=process)


def make_stack(env, tenants, policy="fifo", governor=None, duration=1.0,
               max_pending=None):
    kwargs = {"max_pending": max_pending} if max_pending is not None else {}
    gateway = QueryGateway(env, **kwargs)
    for tenant in tenants:
        gateway.register(tenant)
    engine = FakeEngine(env, duration=duration)
    scheduler = QueryScheduler(env, engine, gateway, make_policy(policy),
                               governor)
    return gateway, engine, scheduler


class TestPolicies:
    def test_fifo_preserves_global_arrival_order(self):
        env = Environment()
        gateway, engine, scheduler = make_stack(
            env, [Tenant(name="a"), Tenant(name="b")],
            policy="fifo", governor=ConcurrencyGovernor(1))
        for label in ("a:1", "b:1", "a:2", "b:2"):
            gateway.submit(label.split(":")[0], label)
        serve_all(env, scheduler)
        assert engine.started == ["a:1", "b:1", "a:2", "b:2"]

    def test_priority_class_preempts_backlog(self):
        env = Environment()
        gateway, engine, scheduler = make_stack(
            env, [Tenant(name="bulk", priority=2),
                  Tenant(name="vip", priority=0)],
            policy="priority", governor=ConcurrencyGovernor(1))
        for i in range(3):
            gateway.submit("bulk", f"bulk:{i}")
        gateway.submit("vip", "vip:0")
        serve_all(env, scheduler)
        assert engine.started[0] == "vip:0"
        assert engine.started[1:] == ["bulk:0", "bulk:1", "bulk:2"]

    def test_fair_share_splits_by_weight(self):
        env = Environment()
        gateway, engine, scheduler = make_stack(
            env, [Tenant(name="heavy", weight=1.0, max_concurrent=1),
                  Tenant(name="light", weight=3.0, max_concurrent=1)],
            policy="fair", governor=ConcurrencyGovernor(1))
        for i in range(40):
            gateway.submit("heavy", f"heavy:{i}")
            gateway.submit("light", f"light:{i}")
        serve_all(env, scheduler)
        first = engine.started[:12]
        light = sum(1 for label in first if label.startswith("light"))
        # 3:1 weights -> light gets ~9 of the first 12 dispatches.
        assert 8 <= light <= 10

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="unknown policy"):
            make_policy("round-robin")


class TestQuotas:
    def test_tenant_concurrency_quota_enforced(self):
        env = Environment()
        gateway, engine, scheduler = make_stack(
            env, [Tenant(name="t", max_concurrent=2)], policy="fifo")
        for i in range(6):
            gateway.submit("t", f"q:{i}")
        serve_all(env, scheduler)
        assert engine.peak_concurrent == 2
        assert len(engine.started) == 6

    def test_governor_caps_total_concurrency(self):
        env = Environment()
        tenants = [Tenant(name=f"t{i}", max_concurrent=4) for i in range(3)]
        gateway, engine, scheduler = make_stack(
            env, tenants, policy="fifo", governor=ConcurrencyGovernor(3))
        for tenant in tenants:
            for i in range(4):
                gateway.submit(tenant.name, f"{tenant.name}:{i}")
        serve_all(env, scheduler)
        assert engine.peak_concurrent == 3
        assert scheduler.governor.peak_in_flight == 3

    def test_governor_derived_from_account_quota(self):
        governor = ConcurrencyGovernor.for_account(1_000, 4)
        assert governor.max_queries == 250
        with pytest.raises(ValueError):
            ConcurrencyGovernor.for_account(0, 4)

    def test_governor_release_guard(self):
        governor = ConcurrencyGovernor(1)
        with pytest.raises(RuntimeError):
            governor.release()


class TestAdmissionControl:
    def test_burst_10x_quota_sheds(self):
        """A burst 10x the account quota is mostly shed, not queued."""
        account_quota = 8
        env = Environment()
        tenant = Tenant(name="burst", max_concurrent=4, max_queue_depth=8)
        gateway, engine, scheduler = make_stack(
            env, [tenant], policy="fifo",
            governor=ConcurrencyGovernor.for_account(account_quota, 4))
        burst = 10 * account_quota
        for i in range(burst):
            gateway.submit("burst", f"q:{i}")
        serve_all(env, scheduler)
        report = gateway.tally("burst")
        assert report.offered == burst
        assert report.completed == 8          # the queue bound
        assert report.shed == burst - 8
        assert report.shed / report.offered == pytest.approx(0.9)

    def test_gateway_wide_backpressure(self):
        env = Environment()
        gateway, engine, scheduler = make_stack(
            env, [Tenant(name="a"), Tenant(name="b")],
            policy="fifo", governor=ConcurrencyGovernor(1), max_pending=3)
        for i in range(5):
            gateway.submit("a", f"a:{i}")
        assert gateway.submit("b", "b:0") is None  # global bound reached
        serve_all(env, scheduler)
        assert gateway.tally("a").shed == 2
        assert gateway.tally("b").shed == 1

    def test_unregistered_tenant_rejected(self):
        env = Environment()
        gateway = QueryGateway(env)
        with pytest.raises(KeyError, match="not registered"):
            gateway.submit("ghost", "q")


class TestWarmPool:
    @staticmethod
    def _deploy(sim, name="pingable"):
        def handler(context, payload):
            yield context.env.timeout(0.05)
            return "ok"
        sim.platform.deploy(FunctionConfig(
            name=name, handler=handler, memory_bytes=1_769 * units.MiB,
            binary_bytes=1 * units.MiB))

    def test_keep_alive_fills_then_hits(self):
        sim = CloudSim(seed=3)
        self._deploy(sim)
        first = sim.run(sim.platform.keep_alive("pingable", 3))
        assert first == {"hits": 0, "misses": 3, "skipped": 0}
        assert sum(not sandbox.expired(sim.env.now)
                   for sandbox in sim.platform._warm["pingable"]) == 3
        second = sim.run(sim.platform.keep_alive("pingable", 3))
        assert second == {"hits": 3, "misses": 0, "skipped": 0}

    def test_pinged_function_warmstarts(self):
        sim = CloudSim(seed=3)
        self._deploy(sim)
        sim.run(sim.platform.keep_alive("pingable", 1))
        record = sim.run(sim.platform.invoke("pingable"))
        assert record.cold is False

    def test_manager_hit_rate_beats_cold_rate(self):
        sim = CloudSim(seed=3)
        self._deploy(sim)
        manager = WarmPoolManager(sim.env, sim.platform,
                                  {"pingable": 2}, interval_s=120.0)
        sim.run(sim.env.process(manager.run(until=600.0)))
        stats = manager.stats
        assert stats.rounds >= 5
        assert stats.misses == 2      # only the initial fill coldstarts
        assert stats.hit_rate > stats.cold_start_rate
        assert stats.hit_rate > 0.7
        assert manager.ping_cost_usd() > 0.0

    def test_invalid_targets_rejected(self):
        sim = CloudSim(seed=3)
        with pytest.raises(ValueError):
            WarmPoolManager(sim.env, sim.platform, {"f": 0})
        with pytest.raises(ValueError):
            WarmPoolManager(sim.env, sim.platform, {"f": 1}, interval_s=0)


class TestServingIntegration:
    @pytest.fixture(scope="class")
    def overload_outcomes(self):
        """FIFO vs fair share on the same deterministic overload trace."""
        outcomes = {}
        for policy in ("fifo", "fair"):
            outcomes[policy] = run_serving_workload(
                default_tenant_mix(rate_scale=6.0), policy=policy,
                window_s=180.0, seed=1, max_concurrent_queries=1)
        return outcomes

    def test_same_trace_across_policies(self, overload_outcomes):
        fifo, fair = (overload_outcomes[p] for p in ("fifo", "fair"))
        for name in fifo.reports:
            assert fifo.reports[name].offered == fair.reports[name].offered

    def test_fair_share_cuts_high_priority_p99(self, overload_outcomes):
        """Acceptance: fair share reduces the premium tenant's p99."""
        fifo = overload_outcomes["fifo"].reports["interactive"]
        fair = overload_outcomes["fair"].reports["interactive"]
        assert fair.latency_p99 < 0.5 * fifo.latency_p99
        assert fair.slo_attainment >= fifo.slo_attainment

    def test_workloads_sharing_a_tenant_name_are_rejected(self):
        """Tenants are keyed by name: a second workload under the same
        name would replace the first one's plan and arrivals."""
        workloads = [
            TenantWorkload(Tenant("a")),
            TenantWorkload(Tenant("a", max_queue_depth=1),
                           query="tpch-q1", rate_per_hour=60.0)]
        with pytest.raises(ValueError, match="repeated: a"):
            run_serving_workload(workloads, window_s=60.0)

    def test_fixed_seed_is_deterministic(self):
        runs = [run_serving_workload(default_tenant_mix(), policy="fair",
                                     window_s=120.0, seed=7,
                                     max_concurrent_queries=2).summary()
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_warm_pool_reduces_coldstarts_on_sparse_traffic(self):
        mix = [w for w in default_tenant_mix() if w.tenant.name == "batch"]
        with_pool = run_serving_workload(
            mix, policy="fifo", window_s=120.0, seed=5,
            warm_targets={"skyrise-worker": 2, "skyrise-coordinator": 1},
            warm_interval_s=60.0)
        assert with_pool.warm_stats is not None
        assert with_pool.warm_stats.pings > 0
        assert with_pool.warm_cost_usd > 0.0
        assert with_pool.total_cost_usd > sum(
            r.cost_usd for r in with_pool.reports.values())
