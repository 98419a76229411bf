"""Figure 11: S3 IOPS scaling from one to five prefix partitions.

A Lambda cluster ramps from 20 to 100 instances (~300 read req/s each)
against a fresh bucket; the S3 client uses a 200 ms timeout with
exponential backoff. Paper shape: S3 scales nearly linearly from ~5.5K
to ~27.5K IOPS over ~26 minutes (five partitions); the overall error
rate stays around 10%; throughput dips appear when backoff turns
individual clients into stragglers.
"""

import pytest

from conftest import run_registry, save_artifact
from repro.analysis import relative_std
from repro.core import CloudSim, ascii_timeseries


def test_fig11_s3_iops_scaling(benchmark):
    (result,) = benchmark.pedantic(run_registry, args=("fig11",), rounds=1,
                                   iterations=1)
    times = [t for t, __ in result.series["successful"]]
    successful = [iops for __, iops in result.series["successful"]]
    partitions = [p for __, p in result.series["partitions"]]
    chart = ascii_timeseries(
        list(zip([t / 60 for t in times], successful)),
        title="Figure 11: successful read IOPS over time (x in minutes)")
    save_artifact("fig11_s3_iops_scaling", chart)

    metrics = result.metrics
    # Scaling 1 -> 5 partitions, ~5.5K -> ~27.5K IOPS.
    assert partitions[0] == 1
    assert partitions[-1] == 5
    assert successful[0] <= 7_000
    assert metrics["final_iops"] == pytest.approx(27_500, rel=0.1)
    # The overall process takes tens of minutes (paper: ~26 min).
    assert 20 <= metrics["duration_min"] <= 40
    # Overall error rate around 10%.
    assert 0.03 <= metrics["error_rate"] <= 0.25
    # While scaling out, IOPS shows high variance (paper: relative
    # standard deviation up to 29% for individual configurations) —
    # client backoff produces visible dips.
    mid = slice(len(successful) // 4, 3 * len(successful) // 4)
    assert relative_std(successful[mid]) > 5.0
    # Tens of millions of requests were issued and counted by the hook.
    assert metrics["requests_millions"] > 10
    # IOPS never exceeds what the partitions can serve.
    for iops, count in zip(successful, partitions):
        assert iops <= count * 5_500 + 1e-6


def test_fig11_write_iops_do_not_scale(benchmark):
    """Section 4.4.1: continuous write load cannot split partitions."""

    def run_writes():
        sim = CloudSim(seed=12)
        s3 = sim.s3()
        now = 0.0
        last = None
        while now < 2 * 3_600.0:  # two hours of continuous write load
            last = s3.offer_load(0.0, 12_000.0, elapsed=60.0, now=now)
            now += 60.0
        return s3, last

    s3, last = benchmark.pedantic(run_writes, rounds=1, iterations=1)
    assert s3.partition_count == 1
    assert last.accepted_write == pytest.approx(3_500)
