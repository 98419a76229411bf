"""Figure 6: EC2 C6g and Lambda network bursting behaviour.

For each EC2 instance size (and Lambda), report the token bucket size,
the burst throughput, and the sustained baseline throughput. The paper's
shape: both services burst; EC2 buckets (and burst durations) are
substantially larger and grow with instance size; Lambda's bucket is
small (~0.3 GiB) but its burst is significant.
"""

import pytest

from conftest import run_registry, save_artifact
from repro import units
from repro.core import format_table


def test_fig6_bursting_comparison(benchmark):
    results = benchmark.pedantic(run_registry, args=("fig6",), rounds=1,
                                 iterations=1)
    profiles = {r.parameters["instance"]: r.metrics for r in results}
    rows = []
    for name, profile in profiles.items():
        rows.append([
            name,
            f"{profile['bucket_gib']:.2f}",
            f"{profile['burst_rate_gib_s']:.2f}",
            f"{profile['baseline_rate_gib_s']:.3f}",
            f"{profile['burst_duration_s']:.1f}",
        ])
    table = format_table(
        ["System", "Bucket [GiB]", "Burst [GiB/s]", "Baseline [GiB/s]",
         "Burst duration [s]"], rows,
        title="Figure 6: network bursting, EC2 C6g vs Lambda")
    save_artifact("fig6_bursting_comparison", table)

    medium, xlarge, x4large, x16large = (
        profiles[f"c6g.{size}"]
        for size in ("medium", "xlarge", "4xlarge", "16xlarge"))
    # EC2 bucket size and burst duration grow with instance size.
    assert medium["bucket_gib"] < xlarge["bucket_gib"] < x4large["bucket_gib"]
    assert medium["burst_duration_s"] < x4large["burst_duration_s"]
    # Burstable sizes hit ~10 Gbps; 16xlarge runs at line rate (25 Gbps).
    assert xlarge["burst_rate_gib_s"] == pytest.approx(
        10 * units.Gbps / units.GiB, rel=0.1)
    assert x16large["baseline_rate_gib_s"] == pytest.approx(
        25 * units.Gbps / units.GiB, rel=0.1)
    # EC2 baselines grow with size; Lambda's is constant and tiny.
    assert medium["baseline_rate_gib_s"] < xlarge["baseline_rate_gib_s"] \
        < x16large["baseline_rate_gib_s"]
    # Lambda: small bucket (~0.3 GiB), yet a significant burst rate.
    lam = profiles["lambda"]
    assert lam["bucket_gib"] == pytest.approx(0.3, rel=0.3)
    assert lam["bucket_gib"] < medium["bucket_gib"] / 100
    assert lam["burst_rate_gib_s"] > 1.0
    # EC2 burst durations are minutes; Lambda's is sub-second.
    assert xlarge["burst_duration_s"] > 120
    assert lam["burst_duration_s"] < 1.0
