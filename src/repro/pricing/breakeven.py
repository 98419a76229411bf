"""Break-even formulas for serverless compute and storage (Section 5).

Three families of break-even points:

* :func:`break_even_interval_capacity` — Gray's five-minute rule for
  capacity-priced storage (RAM vs SSD/EBS), Section 5.3.1 first variant;
* :func:`break_even_interval_requests` — the request-priced variant for
  object stores and key-value stores, Section 5.3.1 second variant;
* :func:`break_even_access_size` — the shuffle access size at which
  object storage becomes cheaper than a provisioned VM cluster
  (Section 5.3.2);
* :func:`faas_break_even_queries_per_hour` — the query throughput below
  which FaaS execution is cheaper than a peak-provisioned VM cluster
  (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import units
from repro.pricing.catalog import StoragePricing


@dataclass(frozen=True)
class CapacityTier:
    """A capacity-priced storage tier (disk-like) for the BEI formula."""

    name: str
    #: Hourly rent of one device (dollars).
    rent_per_hour: float
    #: Random-access operations per second at small access sizes.
    iops: float
    #: Sequential bandwidth ceiling (bytes/second).
    bandwidth: float

    def accesses_per_second(self, access_bytes: float) -> float:
        """Access rate one device sustains at the given access size."""
        return min(self.iops, self.bandwidth / access_bytes)


def break_even_interval_capacity(access_bytes: float,
                                 tier2: CapacityTier,
                                 tier1_rent_per_mib_hour: float) -> float:
    """Five-minute-rule break-even interval for capacity-priced storage.

    ``BEI = (PagesPerMB / AccessesPerSecondPerDisk)
    * (RentPerHourPerDisk / RentPerHourPerMBofRAM)``

    Returns the interval in seconds: accesses more frequent than this are
    cheaper served from tier 1 (e.g. RAM); rarer accesses are cheaper left
    in tier 2 (e.g. SSD, EBS).
    """
    if access_bytes <= 0:
        raise ValueError(f"access size must be positive, got {access_bytes}")
    pages_per_mib = units.MiB / access_bytes
    accesses = tier2.accesses_per_second(access_bytes)
    return (pages_per_mib / accesses) * (tier2.rent_per_hour
                                         / tier1_rent_per_mib_hour)


def break_even_interval_requests(access_bytes: float,
                                 tier2: StoragePricing,
                                 tier1_rent_per_mib_hour: float) -> float:
    """Five-minute-rule break-even for request-priced storage reads.

    ``BEI = PagesPerMB * PricePerAccessToTier2 / RentPerSecondPerMBofTier1``

    The access price includes any per-byte transfer fee (S3 Express,
    cross-region S3), which is what invalidates the classic inverse
    proportionality between interval and access size (Section 5.3.1).
    """
    if access_bytes <= 0:
        raise ValueError(f"access size must be positive, got {access_bytes}")
    pages_per_mib = units.MiB / access_bytes
    price = tier2.read_cost(1, total_bytes=access_bytes)
    rent_per_mib_second = tier1_rent_per_mib_hour / 3600.0
    return pages_per_mib * price / rent_per_mib_second


def break_even_access_size(tier2: StoragePricing,
                           server_bandwidth: float,
                           server_rent_per_hour: float,
                           read: bool = True) -> Optional[float]:
    """Shuffle break-even access size (bytes), Section 5.3.2.

    ``BEAS = PricePerAccess * MBPerHourPerServer / RentPerHourPerServer``

    Above this access size, shuffling through the object store is cheaper
    than through a provisioned key-value-store VM cluster whose capacity
    is its aggregate network bandwidth. Returns ``None`` when the storage
    service's per-byte transfer fee alone exceeds the per-byte cost of VM
    networking (S3 Express never breaks even, Table 8).
    """
    price_per_access = tier2.read_request if read else tier2.write_request
    transfer_per_gib = (tier2.read_transfer_per_gib if read
                        else tier2.write_transfer_per_gib)
    bytes_per_hour = server_bandwidth * 3600.0
    vm_cost_per_gib = server_rent_per_hour / (bytes_per_hour / units.GiB)
    if transfer_per_gib >= vm_cost_per_gib:
        return None
    # Each transferred byte costs (transfer - vm) less on the VM cluster;
    # the flat request price amortizes over the access size.
    effective_rate = vm_cost_per_gib - transfer_per_gib
    return price_per_access / (effective_rate / units.GiB)


def faas_break_even_queries_per_hour(faas_cost_per_query: float,
                                     vm_hourly_usd: float,
                                     peak_vms: int) -> float:
    """Query throughput at which FaaS and provisioned IaaS cost equal.

    A peak-provisioned cluster of ``peak_vms`` VMs costs a fixed hourly
    rate; FaaS costs scale per query. FaaS is economical for workloads
    below the returned queries/hour (Section 5.2). An adaptively
    provisioned cluster that pays a fraction of the peak rate lowers the
    break-even by that fraction: pass the fraction of ``vm_hourly_usd``.
    """
    if faas_cost_per_query <= 0:
        raise ValueError("faas_cost_per_query must be positive")
    return vm_hourly_usd * peak_vms / faas_cost_per_query
