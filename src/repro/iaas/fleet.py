"""EC2 instance fleet provisioning."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from repro.network.fabric import Endpoint, Fabric, FluidLink
from repro.network.shaper import ec2_shaper
from repro.pricing.catalog import EC2InstanceType, ec2_instance
from repro.sim import Environment, RandomStreams

#: Median time to provision and boot an on-demand instance (seconds).
VM_STARTUP_MEDIAN_S = 40.0
VM_STARTUP_SIGMA = 0.25


@dataclass
class VmInstance:
    """A running EC2 instance; ``id`` numbers it within its fleet."""

    instance_type: EC2InstanceType
    endpoint: Endpoint
    started_at: float
    id: int

    def uptime(self, now: float) -> float:
        """Billed runtime so far."""
        return now - self.started_at


class Ec2Fleet:
    """Provisions EC2 instances on the simulated fabric.

    Each instance gets a network endpoint whose ingress and egress share
    one EC2-style token bucket personality from the price catalog (the
    baseline/burst/bucket triple of Figure 6).
    """

    def __init__(self, env: Environment, fabric: Fabric, rng: RandomStreams,
                 vpc_link: Optional[FluidLink] = None) -> None:
        self.env = env
        self.fabric = fabric
        self.vpc_link = vpc_link
        self.instances: list[VmInstance] = []
        self._rng = rng.stream("iaas.startup")
        self._ids = itertools.count()

    def provision(self, instance_name: str, count: int = 1):
        """Process: start ``count`` instances; returns them once all boot.

        Instances boot in parallel; the process completes when the slowest
        is up (the paper starts its VM clusters before experiments begin).
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        instance_type = ec2_instance(instance_name)
        startups = [float(self._rng.lognormal(
            mean=math.log(VM_STARTUP_MEDIAN_S), sigma=VM_STARTUP_SIGMA))
            for _ in range(count)]
        yield self.env.timeout(max(startups))
        fresh = [self._launch(instance_type) for _ in range(count)]
        self.instances.extend(fresh)
        return fresh

    def _launch(self, instance_type: EC2InstanceType) -> VmInstance:
        links = (self.vpc_link,) if self.vpc_link is not None else ()
        # Ingress and egress each get a full token bucket; EC2 meters the
        # directions separately like Lambda does.
        endpoint = self.fabric.endpoint(
            f"{instance_type.name}-vm",
            ingress=self._shaper(instance_type),
            egress=self._shaper(instance_type),
            links=links)
        return VmInstance(instance_type=instance_type, endpoint=endpoint,
                          started_at=self.env.now, id=next(self._ids))

    def _shaper(self, instance_type: EC2InstanceType):
        if instance_type.network_bucket_bytes <= 0:
            # No bursting headroom: a plain rate cap.
            return ec2_shaper(baseline_rate=instance_type.network_baseline,
                              burst_rate=instance_type.network_baseline,
                              bucket_bytes=1.0)
        return ec2_shaper(baseline_rate=instance_type.network_baseline,
                          burst_rate=instance_type.network_burst,
                          bucket_bytes=instance_type.network_bucket_bytes)
