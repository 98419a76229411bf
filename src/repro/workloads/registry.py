"""The paper's evaluation as data: one registry keyed by paper id.

Each id maps to the :class:`~repro.core.config.ExperimentConfig` records
behind one artifact, with its seed and full grid. ``benchmarks/test_fig5``
… ``test_fig13`` run ``fig5`` … ``fig13`` through the
:class:`~repro.core.driver.Driver` and assert on the results, so
``repro suite`` prints the numbers a committed artifact checks.
``startup`` and ``query`` have no artifact. Figures 14-15 and Tables 5-6
are not here: they assert on result rows and span trees, which an
:class:`~repro.core.results.ExperimentResult` does not carry.

The ``repro.workloads`` package imports none of its modules; this one
imports ``suite``, whose import registers the ``"query"`` kind.
"""

from __future__ import annotations

from pathlib import Path

from repro import units
from repro.core import Driver, ExperimentConfig, ExperimentResult
from repro.core.plotter import ascii_timeseries
from repro.workloads import suite  # noqa: F401 - registers "query"

#: Groups of ids that ``repro suite`` accepts besides ``full`` and an id.
GROUPS = {
    "network": ("fig5", "fig6", "fig7"),
    "storage": ("fig8", "fig9", "fig10", "fig11", "fig12", "fig13"),
}


def _configs(kind: str, seed: int, named) -> list[ExperimentConfig]:
    return [ExperimentConfig(name=name, kind=kind, parameters=parameters,
                             seed=seed) for name, parameters in named]


def experiments() -> dict[str, list[ExperimentConfig]]:
    """Paper id -> that artifact's configs (fresh copies on every call)."""
    storage = ("s3-standard", "s3-express", "dynamodb", "efs-1")
    # Figure 8's object size per service (Section 4.3.1).
    object_sizes = dict(zip(storage, (64 * units.MiB, 64 * units.MiB,
                                      400 * units.KiB, 4 * units.MiB)))
    return {
        "fig5": _configs("network-burst", 11, [
            (name, {"duration": 5.0, "break_s": 3.0, "direction": direction})
            for name, direction in (("fig5-function-burst", "download"),
                                    ("fig5-function-burst-out", "upload"))]),
        "fig6": _configs("network-comparison", 6, [
            (f"fig6-{instance}", {"instance": instance})
            for instance in ("c6g.medium", "c6g.xlarge", "c6g.4xlarge",
                             "c6g.16xlarge", "lambda")]),
        "fig7": _configs("network-scaling", 7, [
            (f"fig7-{count}-functions" + ("-vpc" if vpc else ""),
             {"functions": count, "duration": 1.0, "vpc": vpc})
            for vpc, counts in ((False, (32, 64, 128, 256)),
                                (True, (128, 256)))
            for count in counts]),
        # The unmarked cell of a service, its first, is the 128-client read.
        "fig8": _configs("storage-throughput", 8, [
            (f"fig8-{service}" + ("-write" if direction == "write" else "")
             + (f"-{clients}-clients" if clients != 128 else ""),
             {"service": service, "direction": direction, "clients": clients,
              "object_bytes": object_bytes})
            for service, object_bytes in object_sizes.items()
            for direction in ("read", "write")
            for clients in (128, 64, 16, 4, 1)]),
        "fig9": _configs("storage-iops", 9, [
            (f"fig9-{service}", {"service": service})
            for service in (*storage, "efs-2")]),
        "fig10": _configs("storage-latency", 10, [
            (f"fig10-{service}", {"service": service, "requests": 1_000_000})
            for service in storage]),
        "fig11": _configs("s3-iops-scaling", 11, [("fig11-s3-scaling", {})]),
        "fig12": _configs("s3-iops-scaling", 12, [("fig12-s3-scaling", {})]),
        "fig13": _configs("s3-downscaling", 13, [
            (f"fig13-downscaling-{label}", {"probe_interval_s": interval})
            for label, interval in (("hourly", units.HOUR),
                                    ("daily", units.DAY))]),
        "query": _configs("query", 0, [
            *((f"query-{query}",
               {"query": query, "lineitem_partitions": 6,
                "orders_partitions": 3, "clickstreams_partitions": 4})
              for query in ("tpch-q1", "tpch-q6", "tpch-q12", "tpcxbb-q3")),
            ("query-q6-iaas", {"query": "tpch-q6", "backend": "iaas",
                               "lineitem_partitions": 6, "vm_count": 8})]),
        "startup": _configs("function-startup", 0, [
            ("startup-small-binary", {"binary_bytes": 1 * units.MiB}),
            ("startup-large-binary", {"binary_bytes": 50 * units.MiB}),
            ("idle-lifetime", {"binary_bytes": 1 * units.MiB,
                               "measure_idle_lifetime": True})]),
    }


def suite(name: str) -> list[ExperimentConfig]:
    """The configs of a group, of ``full`` (every id) or of one id."""
    registry = experiments()
    ids = registry if name == "full" else GROUPS.get(name, (name,))
    return [config for paper_id in ids for config in registry[paper_id]]


def run_configs(configs, output_dir: Path,
                plot: bool = False) -> list[ExperimentResult]:
    """Run each config, print its metrics and save its JSON result."""
    driver = Driver()
    results = []
    for config in configs:
        print(f"running {config.name} ({config.kind}) ...", flush=True)
        result = driver.run(config)
        path = result.save(output_dir / f"{config.name}.json")
        for key, value in result.metrics.items():
            print(f"  {key} = {value:.6g}")
        print(f"  cost = ${result.cost_usd:.4f}")
        print(f"  saved {path}")
        if plot:
            for label, points in result.series.items():
                print(ascii_timeseries(points, title=f"{config.name}: {label}",
                                       height=8))
        results.append(result)
    return results
