"""Query arrival workloads: dynamic cost comparison of FaaS vs IaaS.

Section 5.2 derives the break-even query throughput analytically (a
peak-provisioned cluster's hourly rate divided by the per-query FaaS
cost). This module validates it dynamically: a Poisson arrival process
submits queries over a simulated window; the FaaS deployment pays per
invocation while the IaaS deployment pays for the provisioned cluster's
uptime — the measured cost curves cross where the formula predicts.

Arrivals flow through the serving layer (:mod:`repro.serve`): a
single-tenant gateway with an unbounded queue and an ungoverned FIFO
scheduler, so the crossover benchmark exercises the same submission
path as multi-tenant serving while reproducing the original
all-arrivals-run-concurrently behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.context import CloudSim
from repro.engine.plan import PhysicalPlan
from repro.pricing import ec2_instance
from repro.pricing.calculator import CostCalculator
from repro.serve.gateway import Tenant
from repro.serve.metrics import cost_per_query
from repro.serve.scheduler import (
    ConcurrencyGovernor,
    FifoPolicy,
    serve_arrivals,
)
from repro.workloads.suite import SuiteSetup, setup_engine
from repro.workloads.traffic import poisson_arrivals  # noqa: F401 - re-export

#: Tenant name used for the single-stream arrival workloads.
ARRIVAL_TENANT = "arrivals"


@dataclass
class ArrivalOutcome:
    """Cost and latency of serving one arrival pattern on one deployment."""

    backend: str
    queries_per_hour: float
    window_s: float
    queries_run: int
    compute_cost_usd: float
    #: Queries the arrival process offered (>= queries_run when shed).
    queries_offered: int
    runtimes: list[float] = field(default_factory=list)

    @property
    def cost_per_query(self) -> float:
        """Average compute dollars per executed query.

        0.0 when the window saw no traffic at all; ``inf`` when traffic
        was offered but nothing ran (e.g. everything was shed) — two
        regimes the overload accounting must keep apart.
        """
        return cost_per_query(self.compute_cost_usd, self.queries_run,
                              self.queries_offered)

    @property
    def median_runtime(self) -> float:
        """Median query latency over the window."""
        ordered = sorted(self.runtimes)
        return ordered[len(ordered) // 2] if ordered else 0.0


def run_arrival_workload(backend: str, plan: PhysicalPlan,
                         queries_per_hour: float,
                         window_s: float = 1_800.0,
                         vm_count: int = 8) -> ArrivalOutcome:
    """Serve a Poisson query stream on one deployment; return its cost.

    FaaS cost: billed function time of every invocation the stream
    caused. IaaS cost: the provisioned cluster's uptime over the window
    regardless of load (the peak-provisioning premise of Section 5.2).
    """
    sim = CloudSim()
    setup = SuiteSetup(queries=("tpch-q6",), lineitem_partitions=4,
                       rows_per_partition=96)
    engine = setup_engine(sim, setup, backend=backend, vm_count=vm_count)
    arrival_rng = sim.rng.stream("arrivals")
    arrivals = poisson_arrivals(arrival_rng, queries_per_hour, window_s)

    # Single tenant, unbounded queue, ungoverned scheduler: every
    # arrival dispatches the instant it is submitted, exactly like the
    # pre-serving-layer private loop.
    tenant = Tenant(name=ARRIVAL_TENANT, max_concurrent=max(len(arrivals), 1))
    tally = serve_arrivals(sim, engine, [(tenant, plan, arrivals)],
                           FifoPolicy(), ConcurrencyGovernor(), window_s,
                           None).tally(ARRIVAL_TENANT)

    calculator = CostCalculator()
    if backend == "faas":
        for record in sim.platform.records:
            config = sim.platform.function(record.function)
            calculator.add_function_invocation(config.memory_bytes,
                                               record.duration)
    else:
        instance = ec2_instance("c6g.xlarge")
        hours = max(sim.env.now, window_s) / 3_600.0
        calculator.cost.compute_iaas += vm_count * instance.hourly_usd * hours
    return ArrivalOutcome(
        backend=backend,
        queries_per_hour=queries_per_hour,
        window_s=window_s,
        queries_run=tally.completed,
        compute_cost_usd=calculator.cost.total,
        queries_offered=tally.offered,
        runtimes=tally.latency.runtimes)


def cost_crossover(plan: PhysicalPlan, rates: list[float],
                   window_s: float = 1_800.0, vm_count: int = 8) -> dict:
    """Measure FaaS and IaaS cost across arrival rates.

    Returns the per-rate outcomes and the measured crossover rate (the
    lowest rate at which IaaS is cheaper), for comparison against the
    analytic break-even.
    """
    outcomes: dict[str, list[ArrivalOutcome]] = {"faas": [], "iaas": []}
    for rate in rates:
        for backend in ("faas", "iaas"):
            outcomes[backend].append(run_arrival_workload(
                backend, plan, rate, window_s=window_s, vm_count=vm_count))
    crossover = math.inf
    for faas, iaas in zip(outcomes["faas"], outcomes["iaas"]):
        if iaas.compute_cost_usd < faas.compute_cost_usd:
            crossover = min(crossover, faas.queries_per_hour)
    return {"outcomes": outcomes, "crossover_rate": crossover}
