"""Figure 5: function network throughput at 20 ms intervals.

A Lambda function measures inbound throughput for five seconds, pauses
for three, and measures again. The paper's findings: an initial
~1.2 GiB/s burst sustained for ~250 ms from a ~300 MiB budget, a spiky
75 MiB/s baseline afterwards, and a shorter second burst because the
bucket refills only halfway on idle.
"""

import pytest

from conftest import run_registry, save_artifact
from repro import units
from repro.core import ascii_timeseries


def test_fig5_network_burst(benchmark):
    inbound, outbound = benchmark.pedantic(run_registry, args=("fig5",),
                                           rounds=1, iterations=1)
    first = inbound.series["first_burst"]
    chart = ascii_timeseries(
        [(t, r / units.GiB) for t, r in first],
        title="Figure 5 (inbound, first run): GiB/s over time")
    save_artifact("fig5_network_burst", chart)

    profile = inbound.metrics
    # Initial inbound burst: ~1.2 GiB/s for ~250 ms.
    assert profile["burst_rate_gib_s"] == pytest.approx(1.2, rel=0.08)
    assert 0.20 <= profile["burst_duration_s"] <= 0.30
    # Token budget ~300 MiB.
    assert profile["bucket_mib"] == pytest.approx(300, rel=0.25)
    # Baseline: 7.5 MiB per 100 ms interval -> 75 MiB/s.
    assert profile["baseline_rate_mib_s"] == pytest.approx(75, rel=0.15)
    # The baseline is spiky at 20 ms sampling: idle windows exist.
    tail = [r for __, r in first[len(first) // 2:]]
    assert min(tail) == 0.0

    # The burst is renewable but the second one is shorter (half refill).
    assert profile["second_bucket_mib"] < profile["bucket_mib"]
    assert profile["second_bucket_mib"] == pytest.approx(
        profile["bucket_mib"] / 2, rel=0.35)

    # Outbound bandwidth is reduced relative to inbound.
    assert outbound.metrics["burst_rate_gib_s"] < profile["burst_rate_gib_s"]
