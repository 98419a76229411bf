"""Experiment cost accounting.

The paper's driver aggregates request counts and compute runtimes, then
estimates cost via the AWS price list service, disregarding bulk
discounts (Section 3.1). :class:`CostCalculator` is that component: feed
it function invocations, VM hours, and storage request statistics; read
back an itemized :class:`ExperimentCost`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.pricing.catalog import (
    LAMBDA_PRICING,
    STORAGE_PRICES,
    ec2_instance,
)
from repro.storage.base import RequestStats, RequestType


@dataclass
class ExperimentCost:
    """Itemized cost of one experiment, in dollars."""

    compute_faas: float = 0.0
    compute_iaas: float = 0.0
    storage_requests: float = 0.0
    storage_transfer: float = 0.0

    @property
    def total(self) -> float:
        """Grand total in dollars."""
        return (self.compute_faas + self.compute_iaas + self.storage_requests
                + self.storage_transfer)


class CostCalculator:
    """Accumulates experiment cost from runtime statistics."""

    def __init__(self) -> None:
        self.cost = ExperimentCost()

    def add_function_invocation(self, memory_bytes: float, duration_s: float,
                                ephemeral_bytes: float = 0.0) -> float:
        """Record one Lambda invocation; returns its cost."""
        amount = LAMBDA_PRICING.invocation_cost(
            memory_bytes, duration_s, ephemeral_bytes)
        self.cost.compute_faas += amount
        return amount

    def add_vm_time(self, instance_name: str, duration_s: float) -> float:
        """Record on-demand VM usage; returns its cost.

        EC2 bills per-second with a one-minute minimum [15].
        """
        billed_s = max(duration_s, 60.0)
        amount = ec2_instance(instance_name).hourly_usd * billed_s / 3600.0
        self.cost.compute_iaas += amount
        return amount

    def add_storage_requests(self, service_name: str,
                             stats: RequestStats) -> float:
        """Record storage request/transfer cost from a stats hook.

        Every counted request is billed — including throttles and
        timeouts, matching the paper's conservative accounting.
        """
        pricing = STORAGE_PRICES[service_name]
        reads = stats.total(RequestType.GET)
        writes = stats.total(RequestType.PUT)
        request_cost = (reads * pricing.read_request
                        + writes * pricing.write_request)
        transfer_cost = (pricing.read_cost(reads, stats.bytes_read)
                         + pricing.write_cost(writes, stats.bytes_written)
                         - request_cost)
        self.cost.storage_requests += request_cost
        self.cost.storage_transfer += transfer_cost
        return request_cost + transfer_cost


def stage_cost(invocations, storage_reads, storage_writes) -> dict:
    """Pure per-stage cost attribution (the obs profiler's price hook).

    ``invocations`` is an iterable of ``(memory_bytes, duration_s)``
    pairs; ``storage_reads`` / ``storage_writes`` map service name to
    ``(request_count, total_bytes)``. Returns the compute/storage
    split in dollars — same inputs, same floats, no state.
    """
    compute = sum(LAMBDA_PRICING.invocation_cost(memory, duration)
                  for memory, duration in invocations)
    storage = 0.0
    for service, (count, total_bytes) in sorted(storage_reads.items()):
        storage += STORAGE_PRICES[service].read_cost(count, total_bytes)
    for service, (count, total_bytes) in sorted(storage_writes.items()):
        storage += STORAGE_PRICES[service].write_cost(count, total_bytes)
    return {"compute_usd": compute, "storage_usd": storage,
            "total_usd": compute + storage}


def cost_per_gib_per_s_read(service_name: str, request_bytes: float) -> float:
    """Cents per GiB/s of sustained read throughput (Section 4.3.1).

    The paper compares S3, DynamoDB, and EFS at 0.00064, 6.55, and
    3.00 ¢/GiB/s respectively, using each service's throughput-optimal
    request size.
    """
    pricing = STORAGE_PRICES[service_name]
    requests_per_gib = units.GiB / request_bytes
    dollars = pricing.read_cost(int(round(requests_per_gib)),
                                total_bytes=units.GiB)
    return dollars * 100.0
