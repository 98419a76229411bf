"""Query suite orchestration: setup, protocols, variability metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import coefficient_of_variation, median_ratio
from repro.core.context import CloudSim
from repro.core.driver import Driver
from repro.datagen import load_table, scaled_spec
from repro.engine import SkyriseEngine
from repro.engine.queries import QUERY_BUILDERS
from repro.faas.regions import REGIONS
from repro.iaas import VmShim


@dataclass
class SuiteSetup:
    """Dataset scale of a suite run (shrunken from Table 4 for speed).

    Partition logical sizes stay at SF1000 density (see the scale knob in
    DESIGN.md); only the partition counts shrink.
    """

    lineitem_partitions: int = 6
    orders_partitions: int = 3
    clickstreams_partitions: int = 4
    rows_per_partition: int = 256
    queries: tuple[str, ...] = ("tpch-q1", "tpch-q6", "tpch-q12",
                                "tpcxbb-q3")

    def specs(self) -> list:
        """Dataset specs needed by the configured queries."""
        wanted: list = []
        names = set()
        for query in self.queries:
            if query in ("tpch-q1", "tpch-q6", "tpch-q12"):
                names.add("lineitem")
            if query == "tpch-q12":
                names.add("orders")
            if query == "tpcxbb-q3":
                names.update(("clickstreams", "item"))
        counts = {
            "lineitem": self.lineitem_partitions,
            "orders": self.orders_partitions,
            "clickstreams": self.clickstreams_partitions,
            "item": 1,
        }
        for name in sorted(names):
            wanted.append(scaled_spec(name, counts[name],
                                      self.rows_per_partition))
        return wanted


def setup_engine(sim: CloudSim, setup: SuiteSetup,
                 backend: str = "faas", vm_count: int = 8,
                 intermediate_service: str = "s3-standard",
                 recovery=None) -> SkyriseEngine:
    """Load datasets and deploy the engine on the chosen backend.

    ``recovery`` (a :class:`~repro.faas.supervisor.RecoveryPolicy`)
    configures the coordinator's task-level fault tolerance; ``None``
    uses the defaults (retries on, hedging off).
    """
    s3 = sim.s3()
    storage = {"s3-standard": s3}
    if intermediate_service != "s3-standard":
        storage[intermediate_service] = sim.service(intermediate_service)
    metadata = []
    for spec in setup.specs():
        metadata.append(sim.run(load_table(sim.env, s3, spec)))
    if backend == "faas":
        platform = sim.platform
    elif backend == "iaas":
        instances = sim.run(sim.fleet.provision("c6g.xlarge", count=vm_count))
        platform = VmShim(sim.env, instances, slots_per_vm=1)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    engine = SkyriseEngine(sim.env, platform, storage=storage,
                           intermediate_service=intermediate_service,
                           recovery=recovery)
    for table in metadata:
        engine.register_table(table)
    engine.deploy()
    return engine


def build_plan(query: str, **kwargs):
    """Instantiate a plan from the suite's query registry."""
    try:
        builder = QUERY_BUILDERS[query]
    except KeyError:
        raise KeyError(f"unknown query {query!r}; known: "
                       f"{sorted(QUERY_BUILDERS)}") from None
    return builder(**kwargs)


def run_suite_once(sim: CloudSim, engine: SkyriseEngine,
                   queries: tuple[str, ...]) -> float:
    """Run every query once; return the summed runtime (seconds)."""
    total = 0.0
    for query in queries:
        result = sim.run(engine.run_query(build_plan(query)))
        total += result.runtime
    return total


@dataclass
class VariabilityData:
    """Observed suite runtimes per region for one protocol."""

    mode: str
    runtimes: dict[str, list[float]] = field(default_factory=dict)


def run_variability_experiment(mode: str, runs: int = 8,
                               setup: Optional[SuiteSetup] = None,
                               seed: int = 0) -> VariabilityData:
    """Table 5 protocol: repeated suite runs in every region.

    ``mode="cold"`` leaves 15-minute gaps between runs (sandboxes are
    reclaimed; regional conditions get redrawn), ``mode="warm"`` runs
    back-to-back. Observed runtimes include the region's ambient
    congestion factor, which is what the paper's CoV quantifies.
    """
    if mode not in ("cold", "warm"):
        raise ValueError(f"mode must be cold/warm, got {mode!r}")
    setup = setup or SuiteSetup()
    data = VariabilityData(mode=mode)
    gap = 900.0 if mode == "cold" else 0.0
    for region, profile in REGIONS.items():
        sim = CloudSim(seed=seed, region=region)
        engine = setup_engine(sim, setup)
        rng = sim.rng.stream(f"suite.{region}.{mode}")
        observed: list[float] = []
        for run_index in range(runs):
            runtime = run_suite_once(sim, engine, setup.queries)
            ambient = profile.runtime_multiplier * profile.congestion(
                rng, sim.env.now, warm=(mode == "warm"))
            observed.append(runtime * ambient)
            if gap:
                sim.run(sim.env.process(_sleep(sim.env, gap)))
        data.runtimes[region] = observed
    return data


def _sleep(env, seconds: float):
    yield env.timeout(seconds)


def table5_metrics(data: VariabilityData) -> dict[str, dict]:
    """MR (relative to us-east-1) and CoV per region from a variability run."""
    base = data.runtimes["us-east-1"]
    metrics = {}
    for region, runtimes in data.runtimes.items():
        metrics[region] = {
            "MR": median_ratio(runtimes, base),
            "CoV_percent": coefficient_of_variation(runtimes) * 100.0,
        }
    return metrics


def run_query_experiment(sim: CloudSim, config, result) -> None:
    """Driver hook: one query on a configured stack (Figures 14/15)."""
    params = config.parameters
    setup = SuiteSetup(
        lineitem_partitions=params.get("lineitem_partitions", 6),
        orders_partitions=params.get("orders_partitions", 3),
        clickstreams_partitions=params.get("clickstreams_partitions", 4),
        rows_per_partition=params.get("rows_per_partition", 256),
        queries=(params["query"],))
    engine = setup_engine(
        sim, setup, backend=params.get("backend", "faas"),
        vm_count=params.get("vm_count", 8),
        intermediate_service=params.get("intermediate_service",
                                        "s3-standard"))
    if params.get("prewarm_partitions"):
        sim.s3().prewarm(params["prewarm_partitions"])
    plan = build_plan(params["query"], **params.get("plan_kwargs", {}))
    query_result = sim.run(engine.run_query(plan))
    result.metrics.update({
        "runtime_s": query_result.runtime,
        "cumulated_time_s": query_result.cumulated_time,
        "cost_cents": query_result.cost_cents,
        "requests": query_result.requests,
        "peak_fragments": query_result.peak_fragments,
        "shuffle_time_s": query_result.shuffle_time(),
    })


# The driver never imports upward; the workloads layer contributes the
# "query" experiment kind through the registration hook instead (the
# same inversion as Environment.set_monitor). Importing this module, or
# ``repro.workloads.registry`` or ``arrivals`` (which import it),
# registers it.
Driver.register_kind("query", run_query_experiment)
