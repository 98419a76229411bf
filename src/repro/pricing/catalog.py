"""AWS us-east-1 price catalog (Tables 1 and 2 of the paper).

All prices are in **US dollars**; sizes in bytes; durations in seconds
unless a field name says otherwise. The constants reflect the paper's
time frame (2024) and are the inputs to every cost number the library
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import units


@dataclass(frozen=True)
class LambdaPricing:
    """AWS Lambda (ARM) pricing [32]."""

    #: Dollars per GiB-second of configured memory.
    per_gib_second: float = 1.33334e-5
    #: Dollars per request (invocation).
    per_request: float = 0.20 / 1e6
    #: Dollars per GiB-second of ephemeral storage beyond the free 512 MiB.
    ephemeral_per_gib_second: float = 3.09e-8
    #: Free ephemeral storage per sandbox.
    ephemeral_free_bytes: float = 512 * units.MiB
    #: Memory required per vCPU-equivalent (1,769 MiB per vCPU [39, 40]).
    memory_per_vcpu_bytes: float = 1_769 * units.MiB

    def invocation_cost(self, memory_bytes: float, duration_s: float,
                        ephemeral_bytes: float = 0.0) -> float:
        """Cost of one invocation of the given size and duration."""
        gib = memory_bytes / units.GiB
        cost = self.per_request + gib * duration_s * self.per_gib_second
        extra = max(0.0, ephemeral_bytes - self.ephemeral_free_bytes)
        cost += (extra / units.GiB) * duration_s * self.ephemeral_per_gib_second
        return cost


LAMBDA_PRICING = LambdaPricing()


@dataclass(frozen=True)
class EC2InstanceType:
    """One EC2 instance type: capacity and pricing."""

    name: str
    vcpus: int
    memory_bytes: float
    hourly_usd: float
    #: Baseline network bandwidth (bytes/second).
    network_baseline: float
    #: Burst network bandwidth (bytes/second); equals baseline when the
    #: instance has no bursting headroom.
    network_burst: float
    #: Network token-bucket size (bytes) — calibrated against Figure 6:
    #: bucket size and burst duration grow with instance size.
    network_bucket_bytes: float
    #: Local NVMe capacity, if any (C6gd variants).
    nvme_bytes: Optional[float] = None
    #: Reserved-pricing hourly rate (3-year tier; ~40-60% discount).
    reserved_hourly_usd: Optional[float] = None

    @property
    def per_gib_hour(self) -> float:
        """Dollars per GiB of RAM per hour at on-demand pricing."""
        return self.hourly_usd / (self.memory_bytes / units.GiB)

    @property
    def per_vcpu_hour(self) -> float:
        """Dollars per vCPU per hour at on-demand pricing."""
        return self.hourly_usd / self.vcpus


def _c6g(size: str, vcpus: int, mem_gib: int, hourly: float,
         baseline_gbps: float, burst_gbps: float,
         bucket_gib: float) -> EC2InstanceType:
    return EC2InstanceType(
        name=f"c6g.{size}", vcpus=vcpus, memory_bytes=mem_gib * units.GiB,
        hourly_usd=hourly,
        network_baseline=baseline_gbps * units.Gbps,
        network_burst=burst_gbps * units.Gbps,
        network_bucket_bytes=bucket_gib * units.GiB,
        reserved_hourly_usd=round(hourly * 0.5, 6))


#: The C6g family (Graviton2) used throughout the evaluation [11, 15].
#: Network baselines/bursts follow the EC2 bandwidth documentation [22];
#: bucket sizes are calibrated to Figure 6: both the bucket size and the
#: burst duration (bucket / net drain, ~2 to ~25 minutes) grow with
#: instance size; instances of 8xlarge and up sustain their full rate.
_C6G_FAMILY = [
    _c6g("medium", 1, 2, 0.034, 0.500, 10.0, 130.0),
    _c6g("large", 2, 4, 0.068, 0.750, 10.0, 250.0),
    _c6g("xlarge", 4, 8, 0.136, 1.250, 10.0, 490.0),
    _c6g("2xlarge", 8, 16, 0.272, 2.500, 10.0, 600.0),
    _c6g("4xlarge", 16, 32, 0.544, 5.000, 10.0, 700.0),
    _c6g("8xlarge", 32, 64, 1.088, 12.000, 12.0, 0.0),
    _c6g("12xlarge", 48, 96, 1.632, 20.000, 20.0, 0.0),
    _c6g("16xlarge", 64, 128, 2.176, 25.000, 25.0, 0.0),
]

#: C6gd adds local NVMe; the SSD rent is the C6gd/C6g price delta.
_C6GD_FAMILY = [
    EC2InstanceType(
        name=base.name.replace("c6g.", "c6gd."),
        vcpus=base.vcpus, memory_bytes=base.memory_bytes,
        hourly_usd=round(base.hourly_usd * 1.129, 6),
        network_baseline=base.network_baseline,
        network_burst=base.network_burst,
        network_bucket_bytes=base.network_bucket_bytes,
        nvme_bytes=base.vcpus * 59.375 * units.GB,
        reserved_hourly_usd=round(base.hourly_usd * 1.129 * 0.5, 6))
    for base in _C6G_FAMILY
]

#: C6gn has ~4x the network throughput of C6g at ~27% price premium.
_C6GN_FAMILY = [
    EC2InstanceType(
        name=base.name.replace("c6g.", "c6gn."),
        vcpus=base.vcpus, memory_bytes=base.memory_bytes,
        hourly_usd=round(base.hourly_usd * 1.271, 6),
        network_baseline=base.network_baseline * 4.0,
        network_burst=min(base.network_burst * 4.0, 100 * units.Gbps),
        network_bucket_bytes=base.network_bucket_bytes * 4.0,
        reserved_hourly_usd=round(base.hourly_usd * 1.271 * 0.5, 6))
    for base in _C6G_FAMILY
]

EC2_INSTANCES: dict[str, EC2InstanceType] = {
    instance.name: instance
    for instance in (*_C6G_FAMILY, *_C6GD_FAMILY, *_C6GN_FAMILY)
}


def ec2_instance(name: str) -> EC2InstanceType:
    """Look up an instance type by name, e.g. ``"c6g.xlarge"``."""
    try:
        return EC2_INSTANCES[name]
    except KeyError:
        raise KeyError(f"unknown instance type {name!r}; known: "
                       f"{sorted(EC2_INSTANCES)}") from None


@dataclass(frozen=True)
class StoragePricing:
    """Pricing of one serverless storage service (Table 2)."""

    name: str
    #: Dollars per read request.
    read_request: float
    #: Dollars per write request.
    write_request: float
    #: Dollars per GiB read (transfer-out fee).
    read_transfer_per_gib: float
    #: Dollars per GiB written (transfer-in fee).
    write_transfer_per_gib: float
    #: Dollars per GiB-month of stored data.
    storage_per_gib_month: float
    #: Bytes included per request before size-based transfer charges kick
    #: in (S3 Express charges transfers beyond 512 KiB).
    request_free_bytes: float = float("inf")
    #: Billing unit size: DynamoDB splits requests into kilobyte-scale
    #: units (4 KB strongly-consistent read units, 1 KB write units) and
    #: charges the request price per unit. ``None`` = flat per request.
    read_unit_bytes: Optional[float] = None
    write_unit_bytes: Optional[float] = None

    def _billed_requests(self, count: int, total_bytes: float,
                         unit_bytes: Optional[float]) -> float:
        if unit_bytes is None:
            return float(count)
        # Each request bills at least one unit; in aggregate that is the
        # larger of the request count and the total unit count.
        return max(float(count), total_bytes / unit_bytes)

    def _billed_transfer(self, count: int, total_bytes: float) -> float:
        if self.request_free_bytes == float("inf"):
            return total_bytes
        return max(0.0, total_bytes - count * self.request_free_bytes)

    def read_cost(self, count: int, total_bytes: float = 0.0) -> float:
        """Cost of ``count`` reads moving ``total_bytes`` in aggregate."""
        billed = self._billed_requests(count, total_bytes, self.read_unit_bytes)
        cost = billed * self.read_request
        cost += (self._billed_transfer(count, total_bytes) / units.GiB) \
            * self.read_transfer_per_gib
        return cost

    def write_cost(self, count: int, total_bytes: float = 0.0) -> float:
        """Cost of ``count`` writes moving ``total_bytes`` in aggregate."""
        billed = self._billed_requests(count, total_bytes, self.write_unit_bytes)
        cost = billed * self.write_request
        cost += (self._billed_transfer(count, total_bytes) / units.GiB) \
            * self.write_transfer_per_gib
        return cost


#: Table 2 of the paper, converted to dollars.
STORAGE_PRICES: dict[str, StoragePricing] = {
    "s3-standard": StoragePricing(
        name="s3-standard",
        read_request=0.40 / 1e6, write_request=5.00 / 1e6,
        read_transfer_per_gib=0.0, write_transfer_per_gib=0.0,
        storage_per_gib_month=0.023),
    "s3-express": StoragePricing(
        name="s3-express",
        read_request=0.20 / 1e6, write_request=2.50 / 1e6,
        read_transfer_per_gib=0.0015, write_transfer_per_gib=0.008,
        storage_per_gib_month=0.16,
        request_free_bytes=512 * units.KiB),
    "dynamodb": StoragePricing(
        name="dynamodb",
        read_request=0.25 / 1e6, write_request=1.25 / 1e6,
        read_transfer_per_gib=0.0, write_transfer_per_gib=0.0,
        storage_per_gib_month=0.25,
        read_unit_bytes=4 * units.KB, write_unit_bytes=1 * units.KB),
    "efs": StoragePricing(
        name="efs",
        read_request=0.0, write_request=0.0,
        read_transfer_per_gib=0.03, write_transfer_per_gib=0.06,
        storage_per_gib_month=0.30),
    #: Cross-region S3 access adds the inter-region transfer fee (Table 7).
    "s3-x-region": StoragePricing(
        name="s3-x-region",
        read_request=0.40 / 1e6, write_request=5.00 / 1e6,
        read_transfer_per_gib=0.02, write_transfer_per_gib=0.0,
        storage_per_gib_month=0.023),
}


@dataclass(frozen=True)
class EbsPricing:
    """EBS gp3 pricing [9, 10], used in the Table 7 hierarchy."""

    per_gib_month: float = 0.08
    per_provisioned_iops_month: float = 0.005
    free_iops: float = 3_000.0
    per_provisioned_mbps_month: float = 0.04
    free_mbps: float = 125.0
    max_iops: float = 16_000.0
    max_throughput: float = 1_000 * units.MB

    def volume_hourly_usd(self, size_bytes: float, iops: float,
                          throughput: float) -> float:
        """On-demand hourly rent of a gp3 volume with provisioned perf."""
        monthly = (size_bytes / units.GiB) * self.per_gib_month
        monthly += max(0.0, iops - self.free_iops) * self.per_provisioned_iops_month
        monthly += max(0.0, throughput / units.MB - self.free_mbps) \
            * self.per_provisioned_mbps_month
        return monthly / 730.0


EBS_GP3 = EbsPricing()

#: Marginal price of EC2 RAM, derived from the C6g/R6g price deltas
#: (~$2/GiB-month). This is the tier-1 rent used by the Table 7
#: break-even intervals.
MARGINAL_RAM_PER_GIB_HOUR = 2.0 / 730.0
