"""Figure 13: S3 scaling down from five to one prefix partitions.

After scaling a bucket to five partitions, probe it with short bursts at
hourly and daily intervals. Paper shape: all five partitions survive a
full day of inactivity; two partitions remain for about three more days;
IOPS returns to single-partition level after ~4.5-5 days overall.
"""

import pytest

from conftest import run_registry, save_artifact
from repro.core import ascii_timeseries


def level(points, day: float) -> float:
    """IOPS measured by the probe closest to ``day``."""
    return min(points, key=lambda p: abs(p[0] - day))[1]


def test_fig13_downscaling(benchmark):
    hourly, daily = (result.series["iops"] for result in benchmark.pedantic(
        run_registry, args=("fig13",), rounds=1, iterations=1))
    chart = ascii_timeseries(
        hourly, title="Figure 13 (hourly probes): max IOPS vs days idle")
    save_artifact("fig13_downscaling", chart)

    for points in (hourly, daily):
        # A full day of inactivity: all five partitions still serve.
        assert level(points, 0.0) == pytest.approx(27_500, rel=0.05)
        assert level(points, 1.0) == pytest.approx(27_500, rel=0.05)
        # Around day 2-4: two partitions remain.
        assert level(points, 3.0) == pytest.approx(11_000, rel=0.05)
        # After ~5 days: back to a single partition.
        assert level(points, 5.5) == pytest.approx(5_500, rel=0.05)
    # The downscaling schedule is monotone: IOPS never recovers while
    # idle (probes are too light to keep the bucket warm).
    for points in (hourly, daily):
        values = [iops for _, iops in points]
        assert all(b <= a + 1e-6 for a, b in zip(values, values[1:]))
    # Hourly and daily probing see the same process (the probes do not
    # influence the outcome materially).
    assert level(hourly, 5.5) == level(daily, 5.5)
