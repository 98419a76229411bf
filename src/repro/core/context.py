"""One-stop construction of a simulated AWS environment.

Bundles the discrete-event environment, network fabric, RNG streams,
FaaS platform, EC2 fleet, and storage services behind a single object so
experiment drivers and examples do not repeat the wiring.
"""

from __future__ import annotations

from typing import Optional

from repro import units
from repro.faas import LambdaPlatform
from repro.iaas import Ec2Fleet
from repro.network import Fabric
from repro.network.fabric import FluidLink
from repro.sim import Environment, RandomStreams
from repro.storage import DynamoDB, EFS, S3Express, S3Standard
from repro.telemetry import get_recorder

#: The hard aggregate-throughput ceiling observed for customer-owned VPCs
#: within a single AZ (Section 4.2.2).
VPC_THROUGHPUT_CAP = 20 * units.GiB


class CloudSim:
    """A simulated AWS region with compute and storage services."""

    def __init__(self, seed: int = 0, region: str = "us-east-1",
                 account_quota: int = 10_000,
                 use_vpc: bool = False) -> None:
        self.env = Environment()
        recorder = get_recorder()
        if recorder is not None:
            recorder.attach_kernel(self.env)
        self.fabric = Fabric(self.env)
        self.rng = RandomStreams(seed=seed)
        self.region = region
        self.vpc_link: Optional[FluidLink] = None
        if use_vpc:
            self.vpc_link = self.fabric.link(VPC_THROUGHPUT_CAP, name="vpc")
        self.platform = LambdaPlatform(
            self.env, self.fabric, self.rng, region=region,
            account_quota=account_quota, vpc_link=self.vpc_link)
        self.fleet = Ec2Fleet(self.env, self.fabric, self.rng,
                              vpc_link=self.vpc_link)
        self._services: dict[str, object] = {}

    # -- storage services, created lazily and cached ---------------------------

    def s3(self) -> S3Standard:
        """The S3 Standard bucket of this simulation."""
        if "s3-standard" not in self._services:
            self._services["s3-standard"] = S3Standard(
                self.env, self.fabric, self.rng)
        return self._services["s3-standard"]

    def s3_express(self) -> S3Express:
        """The S3 Express One Zone bucket."""
        if "s3-express" not in self._services:
            self._services["s3-express"] = S3Express(
                self.env, self.fabric, self.rng)
        return self._services["s3-express"]

    def dynamodb(self) -> DynamoDB:
        """The on-demand DynamoDB table."""
        if "dynamodb" not in self._services:
            self._services["dynamodb"] = DynamoDB(
                self.env, self.fabric, self.rng)
        return self._services["dynamodb"]

    def efs(self, filesystem_count: int = 1) -> EFS:
        """An EFS deployment sharded over ``filesystem_count`` filesystems."""
        key = f"efs-{filesystem_count}"
        if key not in self._services:
            self._services[key] = EFS(self.env, self.fabric, self.rng,
                                      filesystem_count=filesystem_count)
        return self._services[key]

    def service(self, name: str):
        """Storage service by catalog name ('s3-standard', 'efs-2', ...)."""
        if name == "s3-standard":
            return self.s3()
        if name == "s3-express":
            return self.s3_express()
        if name == "dynamodb":
            return self.dynamodb()
        if name.startswith("efs"):
            count = int(name.split("-")[1]) if "-" in name else 1
            return self.efs(count)
        raise KeyError(f"unknown storage service {name!r}")

    # -- execution helpers -------------------------------------------------------

    def run(self, process_or_generator):
        """Run a process (or generator) to completion; return its value."""
        if hasattr(process_or_generator, "send"):
            process = self.env.process(process_or_generator)
        else:
            process = process_or_generator
        self.env.run(until=process)
        return process.value
