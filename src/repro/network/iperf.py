"""iPerf3-style network measurement on the simulated fabric.

Mirrors the paper's network I/O microbenchmark function: a client endpoint
sends or receives randomly generated data for a pre-specified time while a
probe samples throughput at a fixed interval (20 ms in the paper). Helper
routines estimate the burst profile (burst rate, baseline rate, token
bucket size) from a measured series, which is how Figure 6's bars are
derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.network.fabric import Endpoint, Fabric, FluidLink
from repro.network.probe import ProbeSeries, ThroughputProbe
from repro.sim import Environment


@dataclass
class BurstProfile:
    """Summary of a token-bucket-shaped throughput series."""

    burst_rate: float
    baseline_rate: float
    bucket_bytes: float
    burst_duration: float


@dataclass
class IperfResult:
    """Outcome of one iPerf measurement run."""

    series: ProbeSeries
    duration: float
    bytes_transferred: float

    @property
    def mean_rate(self) -> float:
        """Average throughput over the full run (bytes/s)."""
        if self.duration <= 0:
            return 0.0
        return self.bytes_transferred / self.duration

    def burst_profile(self) -> BurstProfile:
        """Estimate burst/baseline rates and bucket size from the series."""
        return estimate_burst_profile(self.series)


class IperfServer:
    """A high-bandwidth measurement peer.

    The paper deploys iPerf3 servers on network-optimized EC2 instances so
    the server never bottlenecks; ``capacity`` models the server NIC and is
    shared by all concurrent client flows against this server.
    """

    def __init__(self, env: Environment, fabric: Fabric, name: str = "iperf-server",
                 capacity: Optional[float] = None) -> None:
        self.env = env
        self.fabric = fabric
        self.endpoint = fabric.endpoint(name)
        self.nic: tuple[FluidLink, ...] = ()
        if capacity is not None:
            self.nic = (fabric.link(capacity, name=f"{name}-nic"),)


class IperfClient:
    """Times a fixed-duration transfer against an :class:`IperfServer`."""

    def __init__(self, env: Environment, fabric: Fabric, endpoint: Endpoint,
                 server: IperfServer) -> None:
        self.env = env
        self.fabric = fabric
        self.endpoint = endpoint
        self.server = server

    def run(self, duration: float, direction: str = "download",
            sample_interval: float = 0.02):
        """Process: measure throughput for ``duration`` seconds.

        ``direction`` is ``"download"`` (server -> client, exercising the
        client's ingress shaper) or ``"upload"``.
        Returns an :class:`IperfResult`.
        """
        if direction not in ("download", "upload"):
            raise ValueError(f"direction must be download/upload, got {direction!r}")
        links = self.server.nic
        if direction == "download":
            flow = self.fabric.open_flow(self.server.endpoint, self.endpoint, links)
        else:
            flow = self.fabric.open_flow(self.endpoint, self.server.endpoint, links)
        probe = ThroughputProbe(self.env, self.fabric, [flow],
                                interval=sample_interval, duration=duration)
        yield self.env.timeout(duration)
        flow.stop()
        series = probe.stop()
        return IperfResult(series=series, duration=duration,
                           bytes_transferred=flow.transferred)


def estimate_burst_profile(series: ProbeSeries) -> BurstProfile:
    """Derive burst rate, baseline rate, and bucket size from a series.

    The baseline is taken as the mean rate over the final quarter of the
    series (after any burst has drained); the burst phase is the initial
    run of samples whose rate is at least halfway from the baseline to the
    peak; the bucket size is the excess bytes above baseline accumulated
    during that phase.
    """
    rates = series.rates()
    if not rates:
        return BurstProfile(0.0, 0.0, 0.0, 0.0)
    tail_start = max(1, len(rates) * 3 // 4)
    baseline = sum(rates[tail_start:]) / max(1, len(rates) - tail_start)
    peak = max(rates)
    threshold = baseline + 0.5 * (peak - baseline)
    burst_samples = 0
    for rate in rates:
        if rate >= threshold and peak > baseline * 1.01:
            burst_samples += 1
        else:
            break
    burst_duration = burst_samples * series.interval
    if burst_samples:
        burst_rate = sum(rates[:burst_samples]) / burst_samples
    else:
        burst_rate = baseline
    # Bucket size: bytes above baseline within the burst phase only — the
    # spiky post-burst regime (quantized grants) must not inflate it.
    excess = sum(max(0.0, rate - baseline) * series.interval
                 for rate in rates[:burst_samples])
    return BurstProfile(burst_rate=burst_rate, baseline_rate=baseline,
                        bucket_bytes=excess, burst_duration=burst_duration)
