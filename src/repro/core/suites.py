"""Predefined experiment suites: the paper's evaluation as data.

The framework "enables the reproduction of our experimental results"
(Section 3) — this module encodes the experiment configurations behind
each figure so that the whole evaluation is a list of
:class:`~repro.core.config.ExperimentConfig` records the
:class:`~repro.core.driver.Driver` can execute. The `benchmarks/`
directory holds the assertion-carrying versions; these configs power
ad-hoc runs and the ``run_full_evaluation`` example. The suites here are
the ones whose kinds the driver runs itself; the query suite and
``full_evaluation`` live in :mod:`repro.workloads.suite`, beside the
``"query"`` handler they need registered.
"""

from __future__ import annotations

from repro import units
from repro.core.config import ExperimentConfig


def network_suite() -> list[ExperimentConfig]:
    """Section 4.2: network bursting and scaling experiments."""
    configs = [
        ExperimentConfig(
            name="fig5-function-burst", kind="network-burst",
            parameters={"duration": 5.0, "break_s": 3.0,
                        "direction": "download"}),
        ExperimentConfig(
            name="fig5-function-burst-out", kind="network-burst",
            parameters={"duration": 5.0, "break_s": 3.0,
                        "direction": "upload"}),
    ]
    for instance in ("c6g.medium", "c6g.xlarge", "c6g.4xlarge"):
        configs.append(ExperimentConfig(
            name=f"fig6-{instance}", kind="network-comparison",
            parameters={"instance": instance}))
    for count in (32, 64, 128):
        configs.append(ExperimentConfig(
            name=f"fig7-{count}-functions", kind="network-scaling",
            parameters={"functions": count, "duration": 1.0}))
    configs.append(ExperimentConfig(
        name="fig7-128-functions-vpc", kind="network-scaling",
        parameters={"functions": 128, "duration": 1.0, "vpc": True}))
    return configs


def storage_suite() -> list[ExperimentConfig]:
    """Sections 4.3-4.4: storage comparison and S3 scaling."""
    configs = []
    sizes = {"s3-standard": 64 * units.MiB, "s3-express": 64 * units.MiB,
             "dynamodb": 400 * units.KiB, "efs-1": 4 * units.MiB}
    for service, object_bytes in sizes.items():
        configs.append(ExperimentConfig(
            name=f"fig8-{service}", kind="storage-throughput",
            parameters={"service": service, "clients": 128,
                        "object_bytes": object_bytes}))
        configs.append(ExperimentConfig(
            name=f"fig9-{service}", kind="storage-iops",
            parameters={"service": service}))
        configs.append(ExperimentConfig(
            name=f"fig10-{service}", kind="storage-latency",
            parameters={"service": service, "requests": 1_000_000}))
    configs.append(ExperimentConfig(
        name="fig11-s3-scaling", kind="s3-iops-scaling", parameters={}))
    configs.append(ExperimentConfig(
        name="fig13-downscaling-hourly", kind="s3-downscaling",
        parameters={"probe_interval_s": units.HOUR}))
    configs.append(ExperimentConfig(
        name="fig13-downscaling-daily", kind="s3-downscaling",
        parameters={"probe_interval_s": units.DAY}))
    return configs


def startup_suite() -> list[ExperimentConfig]:
    """Table 3 resource metrics: startup latency and idle lifetime."""
    return [
        ExperimentConfig(
            name="startup-small-binary", kind="function-startup",
            parameters={"binary_bytes": 1 * units.MiB}),
        ExperimentConfig(
            name="startup-large-binary", kind="function-startup",
            parameters={"binary_bytes": 50 * units.MiB}),
        ExperimentConfig(
            name="idle-lifetime", kind="function-startup",
            parameters={"binary_bytes": 1 * units.MiB,
                        "measure_idle_lifetime": True}),
    ]
