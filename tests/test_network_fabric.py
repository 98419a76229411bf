"""Integration tests for the fluid network fabric."""

import pytest

from repro import units
from repro.network import Fabric, IperfClient, IperfServer, ThroughputProbe
from repro.network.shaper import TokenBucketShaper, lambda_shaper
from repro.sim import Environment


def make_env():
    env = Environment()
    fabric = Fabric(env)
    return env, fabric


class TestBoundedTransfers:
    def test_unconstrained_transfer_completes_at_default_rate(self):
        env, fabric = make_env()
        src = fabric.endpoint("src")
        dst = fabric.endpoint("dst")
        flow = fabric.transfer(src, dst, size=fabric.default_rate * 2.0)
        env.run(until=flow.done)
        assert env.now == pytest.approx(2.0)
        assert flow.transferred == pytest.approx(fabric.default_rate * 2.0)

    def test_transfer_respects_link_capacity(self):
        env, fabric = make_env()
        src = fabric.endpoint("src")
        dst = fabric.endpoint("dst")
        link = fabric.link(capacity=100.0)
        flow = fabric.transfer(src, dst, size=500.0, links=(link,))
        env.run(until=flow.done)
        assert env.now == pytest.approx(5.0)

    def test_two_flows_share_link_fairly(self):
        env, fabric = make_env()
        link = fabric.link(capacity=100.0)
        a = fabric.transfer(fabric.endpoint("a"), fabric.endpoint("x"),
                            size=100.0, links=(link,))
        b = fabric.transfer(fabric.endpoint("b"), fabric.endpoint("y"),
                            size=100.0, links=(link,))
        env.run(until=a.done)
        # Both at 50 B/s -> each finishes at t=2.
        assert env.now == pytest.approx(2.0)
        env.run(until=b.done)
        assert env.now == pytest.approx(2.0)

    def test_departing_flow_frees_capacity(self):
        env, fabric = make_env()
        link = fabric.link(capacity=100.0)
        short = fabric.transfer(fabric.endpoint("a"), fabric.endpoint("x"),
                                size=50.0, links=(link,))
        long = fabric.transfer(fabric.endpoint("b"), fabric.endpoint("y"),
                               size=150.0, links=(link,))
        env.run(until=short.done)
        assert env.now == pytest.approx(1.0)
        env.run(until=long.done)
        # long had 50 after 1s at 50 B/s, then 100 remaining at 100 B/s.
        assert env.now == pytest.approx(2.0)

    def test_max_min_respects_per_flow_bottleneck(self):
        env, fabric = make_env()
        shared = fabric.link(capacity=100.0)
        slow_nic = fabric.link(capacity=10.0)
        capped = fabric.transfer(fabric.endpoint("a"), fabric.endpoint("x"),
                                 size=10.0, links=(shared, slow_nic))
        free = fabric.transfer(fabric.endpoint("b"), fabric.endpoint("y"),
                               size=90.0, links=(shared,))
        env.run(until=capped.done)
        # capped at 10 B/s -> 1s; free gets the residual 90 B/s -> 1s too.
        assert env.now == pytest.approx(1.0)
        env.run(until=free.done)
        assert env.now == pytest.approx(1.0)

    def test_invalid_size_rejected(self):
        env, fabric = make_env()
        with pytest.raises(ValueError):
            fabric.transfer(fabric.endpoint("a"), fabric.endpoint("b"), size=0)


class TestShapedTransfers:
    def test_burst_then_baseline(self):
        env, fabric = make_env()
        shaper = TokenBucketShaper(capacity=100.0, burst_rate=100.0,
                                   refill_rate=10.0, mode="continuous",
                                   initial_level=100.0)
        src = fabric.endpoint("server")
        dst = fabric.endpoint("fn", ingress=shaper)
        # 200 bytes: ~111 at burst (100 bucket + refill), rest at baseline.
        flow = fabric.transfer(src, dst, size=211.0)
        env.run(until=flow.done)
        # Burst phase: drain 100 net at (100-10)=90/s -> 10/9 s, moving
        # 100*10/9 = 111.1 bytes. Remaining 99.9 at 10/s -> ~9.99 s.
        assert env.now == pytest.approx(10 / 9 + (211 - 100 * 10 / 9) / 10, rel=1e-6)

    def test_aggregate_shaper_limits_sum_of_flows(self):
        env, fabric = make_env()
        shaper = TokenBucketShaper(capacity=1.0, burst_rate=100.0,
                                   refill_rate=100.0, mode="continuous",
                                   initial_level=1.0)
        dst = fabric.endpoint("fn", ingress=shaper)
        a = fabric.transfer(fabric.endpoint("s1"), dst, size=100.0)
        b = fabric.transfer(fabric.endpoint("s2"), dst, size=100.0)
        env.run(until=a.done)
        assert env.now == pytest.approx(2.0)  # 50 B/s each
        env.run(until=b.done)
        assert env.now == pytest.approx(2.0)

    def test_idle_refill_requires_a_real_idle_period(self):
        env, fabric = make_env()
        shaper = TokenBucketShaper(capacity=100.0, burst_rate=10.0,
                                   refill_rate=0.0, mode="continuous",
                                   idle_refill_level=50.0, initial_level=100.0)
        dst = fabric.endpoint("fn", ingress=shaper)
        src = fabric.endpoint("s")

        def scenario(env):
            first = fabric.transfer(src, dst, size=100.0)
            yield first.done
            drained_level = shaper.level
            # After a multi-second idle period the next flow finds the
            # bucket refilled halfway (short gaps are covered by the
            # shaper unit tests).
            yield env.timeout(5.0)
            late = fabric.transfer(src, dst, size=1.0)
            refilled_level = shaper.level
            yield late.done
            return drained_level, refilled_level

        proc = env.process(scenario(env))
        env.run(until=proc)
        drained, refilled = proc.value
        assert drained == pytest.approx(0.0, abs=1.0)
        assert refilled == pytest.approx(50.0, abs=1.0)


class TestLambdaNetworkModel:
    """Reproduces the headline numbers of Section 4.2.1 at model level."""

    def run_iperf(self, duration=5.0, direction="download"):
        env, fabric = make_env()
        server = IperfServer(env, fabric, capacity=20 * units.GiB)
        fn = fabric.endpoint("lambda-fn", ingress=lambda_shaper("in"),
                             egress=lambda_shaper("out"))
        client = IperfClient(env, fabric, fn, server)
        proc = env.process(client.run(duration, direction=direction))
        env.run(until=proc)
        return proc.value

    def test_initial_inbound_burst_rate_and_duration(self):
        result = self.run_iperf()
        profile = result.burst_profile()
        # ~1.2 GiB/s sustained for ~250 ms (300 MiB / 1.2 GiB/s).
        assert profile.burst_rate == pytest.approx(1.2 * units.GiB, rel=0.05)
        assert 0.2 <= profile.burst_duration <= 0.3

    def test_baseline_bandwidth_75_mib_per_s(self):
        result = self.run_iperf(duration=5.0)
        # After the burst, average throughput approaches 75 MiB/s.
        rates = result.series.rates()
        tail = rates[len(rates) // 2:]
        mean_tail = sum(tail) / len(tail)
        assert mean_tail == pytest.approx(75 * units.MiB, rel=0.1)

    def test_baseline_is_spiky_at_20ms_sampling(self):
        result = self.run_iperf(duration=3.0)
        rates = result.series.rates()
        tail = rates[len(rates) // 2:]
        # Quantized grants: some 20 ms windows idle, some carry a grant.
        assert min(tail) == 0.0
        assert max(tail) > 10 * 75 * units.MiB / 10

    def test_outbound_burst_is_lower_than_inbound(self):
        inbound = self.run_iperf(direction="download").burst_profile()
        outbound = self.run_iperf(direction="upload").burst_profile()
        assert outbound.burst_rate < inbound.burst_rate

    def test_second_burst_after_break_is_shorter(self):
        """The bucket refills to half on idle, so burst #2 moves less data."""
        env, fabric = make_env()
        server = IperfServer(env, fabric, capacity=20 * units.GiB)
        fn = fabric.endpoint("fn", ingress=lambda_shaper("in"))
        client = IperfClient(env, fabric, fn, server)

        def scenario(env):
            first = yield env.process(client.run(1.0))
            yield env.timeout(3.0)
            second = yield env.process(client.run(1.0))
            return first, second

        proc = env.process(scenario(env))
        env.run(until=proc)
        first, second = proc.value
        first_burst = first.burst_profile().bucket_bytes
        second_burst = second.burst_profile().bucket_bytes
        # Roughly half: 150 MiB rechargeable vs 300 MiB initial. The
        # profile estimator works on 20 ms samples of a spiky series, so
        # allow a generous band around the ideal 0.5 ratio.
        assert 0.35 * first_burst <= second_burst <= 0.8 * first_burst


class TestVpcCap:
    def test_vpc_link_caps_aggregate_throughput(self):
        env, fabric = make_env()
        vpc = fabric.link(20 * units.GiB, name="vpc")
        flows = []
        for i in range(64):
            dst = fabric.endpoint(f"fn-{i}", ingress=lambda_shaper("in"))
            src = fabric.endpoint(f"server-{i}")
            flows.append(fabric.open_flow(src, dst, links=(vpc,)))
        probe = ThroughputProbe(env, fabric, flows, interval=0.02, duration=0.2)
        env.run(until=probe.process)
        peak = probe.series.peak_rate()
        # 64 x 1.2 GiB/s of demand would be 76.8 GiB/s; VPC caps at 20.
        assert peak <= 20 * units.GiB * 1.01
        assert peak >= 19 * units.GiB


class TestProbe:
    def test_probe_interval_validation(self):
        env, fabric = make_env()
        with pytest.raises(ValueError):
            ThroughputProbe(env, fabric, [], interval=0.0)

    def test_probe_total_matches_flow(self):
        env, fabric = make_env()
        link = fabric.link(capacity=100.0)
        flow = fabric.transfer(fabric.endpoint("a"), fabric.endpoint("b"),
                               size=100.0, links=(link,))
        probe = ThroughputProbe(env, fabric, [flow], interval=0.1, duration=2.0)
        env.run(until=probe.process)
        assert probe.series.total_bytes() == pytest.approx(100.0)

    def test_conservation_total_transferred_le_offered(self):
        env, fabric = make_env()
        shaper = TokenBucketShaper(capacity=50.0, burst_rate=100.0,
                                   refill_rate=10.0, mode="continuous",
                                   initial_level=50.0)
        dst = fabric.endpoint("fn", ingress=shaper)
        flow = fabric.open_flow(fabric.endpoint("s"), dst)
        env.run(until=2.0)
        fabric.sync_now()
        # Transferred can never exceed initial bucket + refill over time.
        assert flow.transferred <= 50.0 + 10.0 * 2.0 + 1e-6


class TestCreationOrder:
    """Flow order is creation order, never memory layout."""

    def test_same_update_completions_fire_in_creation_order(self):
        env, fabric = make_env()
        link = fabric.link(capacity=1000.0)
        flows = [fabric.transfer(fabric.endpoint(f"s{i}"),
                                 fabric.endpoint(f"d{i}"),
                                 size=100.0, links=(link,))
                 for i in range(40)]
        fired = []
        for flow in flows:
            flow.done.callbacks.append(
                lambda event, flow=flow: fired.append(flow.id))
        env.run()
        # Equal shares of one link: all forty finish in one update.
        assert len({flow.finished_at for flow in flows}) == 1
        assert fired == [flow.id for flow in flows]

    def test_flow_ids_start_at_zero_on_every_fabric(self):
        for _ in range(2):
            env, fabric = make_env()
            flows = [fabric.open_flow(fabric.endpoint("a"),
                                      fabric.endpoint("b"))
                     for _ in range(3)]
            assert [flow.id for flow in flows] == [0, 1, 2]
            assert repr(flows[0]).startswith("<Flow #0 ")
