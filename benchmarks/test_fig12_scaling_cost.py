"""Figure 12: required time and budget for S3 IOPS scaling.

From the measured scaling staircase (Figure 11), extract the time and
cumulative request cost at which each partition came online, fit
polynomials, and extrapolate to 20 prefix partitions (110K IOPS). Paper
shape: reaching 50K IOPS takes on the order of hours and hundreds of
dollars; 100K IOPS takes many hours and around a thousand dollars —
"a quickly growing expense while S3 only allocates resources linearly
and with delay".
"""

import pytest

from conftest import run_registry, save_artifact
from repro.analysis import extrapolate_scaling
from repro.core import format_table
from repro.pricing import STORAGE_PRICES


def run_experiment():
    (result,) = run_registry("fig12")
    price = STORAGE_PRICES["s3-standard"].read_request
    successful = result.series["successful"]
    tick = successful[1][0] - successful[0][0]
    # Locate when each partition count was first reached and the request
    # budget burned up to that point.
    partitions_seen: dict[int, tuple[float, float]] = {}
    cumulative_requests = 0.0
    for (t, ok), (__, failed), (__, count) in zip(
            successful, result.series["failed"],
            result.series["partitions"]):
        cumulative_requests += (ok + failed) * tick
        partitions = int(count)
        if partitions not in partitions_seen:
            partitions_seen[partitions] = (t, cumulative_requests * price)
    measured = sorted(partitions_seen.items())
    xs = [p for p, _ in measured]
    times = [tc[0] for _, tc in measured]
    costs = [tc[1] for _, tc in measured]
    rows = extrapolate_scaling(xs, times, costs,
                               target_partitions=range(1, 21))
    return rows


def test_fig12_scaling_cost(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = format_table(
        ["Partitions", "IOPS", "Time [h]", "Cost [$]", "Measured"],
        [[r["partitions"], f"{r['iops']:,.0f}", f"{r['time_s'] / 3600:.2f}",
          f"{r['cost_usd']:,.0f}", "yes" if r["measured"] else "no"]
         for r in rows],
        title="Figure 12: time and budget for S3 IOPS scaling")
    save_artifact("fig12_scaling_cost", table)

    by_partitions = {r["partitions"]: r for r in rows}
    # ~50K IOPS needs 10 partitions; ~100K needs 19.
    p10, p19 = by_partitions[10], by_partitions[19]
    assert p10["iops"] == pytest.approx(55_000)
    # Hours-scale to reach ~50K IOPS (paper: ~2 h), growing superlinearly
    # toward ~100K (paper: ~9 h).
    assert 0.5 * 3_600 <= p10["time_s"] <= 6 * 3_600
    assert p19["time_s"] > 1.8 * p10["time_s"]
    # Cost grows into the tens-to-hundreds of dollars range and keeps
    # accelerating (paper, with 10 repetitions per load level: $228 at
    # 50K and $1,094 at 100K).
    assert 10 <= p10["cost_usd"] <= 600
    assert p19["cost_usd"] > 2 * p10["cost_usd"]
    # Time and cost grow monotonically with partitions.
    for a, b in zip(rows, rows[1:]):
        assert b["time_s"] >= a["time_s"] - 1e-6
        assert b["cost_usd"] >= a["cost_usd"] - 1e-6
