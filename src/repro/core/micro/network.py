"""Network I/O microbenchmark (Figures 5-7).

The measurement function wraps the iPerf client: it sends or receives
randomly generated data against iPerf servers deployed on high-bandwidth
EC2 instances for a pre-specified time. Run on the FaaS platform, the
function exercises the sandbox's token-bucket network budget; run on EC2,
the instance's continuous-refill bucket.
"""

from __future__ import annotations

from repro import units
from repro.core.context import CloudSim
from repro.faas.function import FunctionConfig
from repro.network import IperfClient, IperfServer, ThroughputProbe
from repro.network.iperf import BurstProfile, IperfResult, estimate_burst_profile

#: iPerf servers run on network-optimized instances so they never
#: bottleneck; one server serves up to this many clients (Section 4.2).
CLIENTS_PER_SERVER = 10
SERVER_CAPACITY = 100 * units.Gbps
#: The EC2 profile's run cap and sample spacing (Figure 6), and the
#: length of the Lambda profile's burst run.
EC2_PROFILE_MAX_S = 3_600.0
EC2_SAMPLE_INTERVAL_S = 1.0
LAMBDA_PROFILE_S = 8.0


def _deploy_network_function(sim: CloudSim, server: IperfServer,
                             sample_interval: float) -> None:
    """Deploy the network I/O measurement function binary."""

    def network_io_handler(context, payload):
        client = IperfClient(context.env, sim.fabric, context.endpoint,
                             server)
        result = yield from client.run(payload["duration"],
                                       direction=payload["direction"],
                                       sample_interval=sample_interval)
        return result

    sim.platform.deploy(FunctionConfig(
        name="network-io", handler=network_io_handler,
        memory_bytes=7_076 * units.MiB, binary_bytes=9 * units.MiB))


def run_function_network_burst(sim: CloudSim, duration: float = 5.0,
                               break_s: float = 3.0,
                               direction: str = "download",
                               sample_interval: float = 0.02):
    """Figure 5: function network throughput with a refill break.

    Runs the network I/O function for ``duration`` seconds twice, with a
    ``break_s`` pause in between (warm sandbox reuse, so the second run
    sees the half-refilled bucket). Returns both iPerf results.
    """
    server = IperfServer(sim.env, sim.fabric, capacity=SERVER_CAPACITY)
    _deploy_network_function(sim, server, sample_interval)

    def scenario(env):
        first = yield from sim.platform.invoke(
            "network-io", {"duration": duration, "direction": direction})
        yield env.timeout(break_s)
        second = yield from sim.platform.invoke(
            "network-io", {"duration": duration, "direction": direction})
        return first.response, second.response

    first, second = sim.run(scenario(sim.env))
    return first, second


def run_ec2_network_profile(sim: CloudSim, instance_name: str) -> tuple[
        IperfResult, BurstProfile]:
    """Figure 6 (EC2 side): burst/baseline/bucket of one instance type.

    Runs an open flow long enough to drain the token bucket into the
    baseline regime; measurement duration adapts to the instance size
    like the paper's 3-45 minute runs.
    """
    instances = sim.run(sim.fleet.provision(instance_name, count=1))
    instance = instances[0]
    server = IperfServer(sim.env, sim.fabric, capacity=SERVER_CAPACITY)
    shaper = instance.endpoint.ingress
    # Run until the bucket would be empty at burst rate, plus enough
    # slack that the final quarter of the series (the baseline estimation
    # window) lies entirely in the post-burst regime.
    net_drain = max(shaper.burst_rate - shaper.refill_rate, 1.0)
    drain_time = shaper.capacity / net_drain
    duration = min(EC2_PROFILE_MAX_S, 1.5 * drain_time + 120.0)
    client = IperfClient(sim.env, sim.fabric, instance.endpoint, server)
    result = sim.run(client.run(duration, direction="download",
                                sample_interval=EC2_SAMPLE_INTERVAL_S))
    return result, result.burst_profile()


def lambda_network_profile(sim: CloudSim) -> BurstProfile:
    """Figure 6 (Lambda side): the function burst profile."""
    first, _ = run_function_network_burst(sim, duration=LAMBDA_PROFILE_S,
                                          break_s=1.0)
    return estimate_burst_profile(first.series)


def run_network_scaling(sim: CloudSim, function_count: int,
                        duration: float = 2.0,
                        sample_interval: float = 0.02):
    """Figure 7: aggregate throughput of concurrently measuring functions.

    Maps ``function_count`` network I/O functions onto a cluster of iPerf
    servers (one per 10 clients). Build ``sim`` with ``use_vpc=True`` for
    the customer-VPC variant. Returns the aggregate probe series.
    """
    if function_count <= 0:
        raise ValueError("function_count must be positive")
    servers = [IperfServer(sim.env, sim.fabric, name=f"iperf-{i}",
                           capacity=SERVER_CAPACITY)
               for i in range((function_count + CLIENTS_PER_SERVER - 1)
                              // CLIENTS_PER_SERVER)]
    flows = []

    def client_handler(context, payload):
        server = servers[payload["server"]]
        flow = sim.fabric.open_flow(server.endpoint, context.endpoint,
                                    server.nic)
        flows.append(flow)
        yield context.env.timeout(payload["duration"])
        flow.stop()
        return flow.transferred

    sim.platform.deploy(FunctionConfig(
        name="network-io-scale", handler=client_handler,
        memory_bytes=7_076 * units.MiB, binary_bytes=9 * units.MiB))

    def scenario(env):
        probe = ThroughputProbe(env, sim.fabric, lambda: flows,
                                interval=sample_interval,
                                duration=duration + 1.0)
        invocations = [
            env.process(sim.platform.invoke(
                "network-io-scale",
                {"duration": duration, "server": i % len(servers)}))
            for i in range(function_count)]
        for invocation in invocations:
            yield invocation
        return probe.stop()

    return sim.run(scenario(sim.env))
