"""The experiment driver: config in, JSON result out (Figure 3).

Each experiment defines a configuration, which is submitted to the
driver. Depending on the experiment level, the driver invokes the right
microbenchmark function (or the query engine), aggregates the metrics,
estimates the experiment cost, and returns an
:class:`~repro.core.results.ExperimentResult`. The gated Figures 5-13
take every number from it, run on :mod:`repro.workloads.registry`.
"""

from __future__ import annotations

from repro import units
from repro.core.config import ExperimentConfig
from repro.core.context import CloudSim
from repro.core.micro import (
    measure_idle_lifetime,
    measure_startup_latency,
    run_ec2_network_profile,
    run_function_network_burst,
    run_network_scaling,
    run_s3_downscaling,
    run_s3_iops_scaling,
    run_storage_iops,
    run_storage_latency,
    run_storage_throughput,
)
from repro.core.micro.network import lambda_network_profile
from repro.core.results import ExperimentResult
from repro.pricing.calculator import CostCalculator


class Driver:
    """Executes experiment configurations on fresh simulated environments."""

    #: Experiment kinds contributed by higher layers. The driver never
    #: imports upward (see ``repro.lint.layer_dag``): a layer that owns
    #: a kind registers its handler here at import time, in the style
    #: of ``Environment.set_monitor`` — e.g. ``repro.workloads.suite``
    #: registers ``"query"``.
    _external_kinds: dict = {}

    @classmethod
    def register_kind(cls, kind: str, handler) -> None:
        """Register ``handler(sim, config, result)`` for ``kind``."""
        cls._external_kinds[kind] = handler

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Execute ``config`` and return its result record."""
        handler = getattr(self, "_run_" + config.kind.replace("-", "_"), None)
        if handler is None:
            handler = self._external_kinds.get(config.kind)
        if handler is None:
            raise ValueError(
                f"driver cannot run kind {config.kind!r}; external kinds "
                f"register via Driver.register_kind (the 'query' kind "
                f"lives in repro.workloads.suite)")
        result = ExperimentResult(name=config.name, kind=config.kind,
                                  parameters=dict(config.parameters))
        sim = CloudSim(seed=config.seed,
                       use_vpc=config.parameters.get("vpc", False))
        handler(sim, config, result)
        result.cost_usd += self._estimate_cost(sim)
        return result

    def _estimate_cost(self, sim: CloudSim) -> float:
        """Post-hoc cost estimation from platform and storage statistics."""
        calculator = CostCalculator()
        for record in sim.platform.records:
            config = sim.platform.function(record.function)
            calculator.add_function_invocation(config.memory_bytes,
                                               record.duration)
        for instance in sim.fleet.instances:
            calculator.add_vm_time(instance.instance_type.name,
                                   instance.uptime(sim.env.now))
        for name, service in sim._services.items():
            pricing_name = "efs" if name.startswith("efs") else name
            calculator.add_storage_requests(pricing_name, service.stats)
        return calculator.cost.total

    # -- kind handlers -----------------------------------------------------------
    # A parameter a config leaves out keeps the microbenchmark's default.

    def _run_network_burst(self, sim, config, result) -> None:
        first, second = run_function_network_burst(sim, **_given(
            config.parameters, "duration", "break_s", "direction"))
        result.add_series("first_burst", first.series.times(),
                          first.series.rates())
        result.add_series("second_burst", second.series.times(),
                          second.series.rates())
        profile = first.burst_profile()
        result.metrics.update({
            "burst_rate_gib_s": profile.burst_rate / units.GiB,
            "baseline_rate_mib_s": profile.baseline_rate / units.MiB,
            "bucket_mib": profile.bucket_bytes / units.MiB,
            "burst_duration_s": profile.burst_duration,
            "second_bucket_mib":
                second.burst_profile().bucket_bytes / units.MiB,
        })

    def _run_network_comparison(self, sim, config, result) -> None:
        instance = config.parameters["instance"]
        if instance == "lambda":
            profile = lambda_network_profile(sim)
        else:
            __, profile = run_ec2_network_profile(sim, instance)
        result.metrics.update({
            "burst_rate_gib_s": profile.burst_rate / units.GiB,
            "baseline_rate_gib_s": profile.baseline_rate / units.GiB,
            "bucket_gib": profile.bucket_bytes / units.GiB,
            "burst_duration_s": profile.burst_duration,
        })

    def _run_network_scaling(self, sim, config, result) -> None:
        series = run_network_scaling(
            sim, function_count=config.parameters["functions"],
            **_given(config.parameters, "duration"))
        result.add_series("aggregate", series.times(), series.rates())
        result.metrics["peak_gib_s"] = series.peak_rate() / units.GiB

    def _run_storage_throughput(self, sim, config, result) -> None:
        outcome = run_storage_throughput(
            sim, config.parameters["service"],
            clients=config.parameters["clients"],
            object_bytes=config.parameters["object_bytes"],
            **_given(config.parameters, "direction"))
        result.metrics.update({
            "offered_gib_s": outcome.offered / units.GiB,
            "achieved_gib_s": outcome.achieved_gib_s,
        })

    def _run_storage_iops(self, sim, config, result) -> None:
        outcome = run_storage_iops(sim, config.parameters["service"],
                                   **_given(config.parameters, "clients"))
        result.metrics.update({
            "read_iops": outcome.achieved_read,
            "write_iops": outcome.achieved_write,
        })

    def _run_storage_latency(self, sim, config, result) -> None:
        outcome = run_storage_latency(
            sim, config.parameters["service"],
            **_given(config.parameters, request_count="requests"))
        for op in ("read", "write"):
            for stat, value in outcome[op].items():
                result.metrics[f"{op}_{stat}_ms"] = value * 1e3

    def _run_s3_iops_scaling(self, sim, config, result) -> None:
        trace = run_s3_iops_scaling(sim, **_given(
            config.parameters, "initial_instances", "final_instances",
            "per_instance_iops", "step_duration_s"))
        result.add_series("successful", trace.times, trace.successful)
        result.add_series("failed", trace.times, trace.failed)
        result.add_series("partitions", trace.times, trace.partitions)
        result.metrics.update({
            "final_iops": trace.final_iops,
            "error_rate": trace.error_rate(),
            "final_partitions": trace.partitions[-1],
            "duration_min": trace.times[-1] / 60.0,
            # Every fluid request was metered via the client hook.
            "requests_millions": sim.s3().stats.total() / 1e6,
        })

    def _run_s3_downscaling(self, sim, config, result) -> None:
        points = run_s3_downscaling(
            sim, probe_interval_s=config.parameters["probe_interval_s"],
            **_given(config.parameters, "total_days"))
        result.add_series("iops", [p[0] / units.DAY for p in points],
                          [p[1] for p in points])
        result.metrics["final_iops"] = points[-1][1]

    def _run_function_startup(self, sim, config, result) -> None:
        startup = measure_startup_latency(
            sim, **_given(config.parameters, "binary_bytes"))
        result.metrics.update({
            "cold_median_ms": startup.cold_median * 1e3,
            "warm_median_ms": startup.warm_median * 1e3,
        })
        if config.parameters.get("measure_idle_lifetime"):
            lifetimes = measure_idle_lifetime(
                sim, gaps_s=[60.0, 300.0, 900.0, 3600.0])
            for gap, fraction in lifetimes.items():
                result.metrics[f"warm_after_{int(gap)}s"] = fraction


def _given(parameters: dict, *names: str, **renamed: str) -> dict:
    """Keywords from the parameters a config sets: each of ``names`` as
    itself, each ``keyword=parameter`` of ``renamed`` under ``keyword``."""
    renamed.update(zip(names, names))
    return {keyword: parameters[name] for keyword, name in renamed.items()
            if name in parameters}
