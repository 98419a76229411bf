"""Figure 10: request latency distributions over one million requests.

One million 1 KiB reads and writes per service from 10 clients via the
synchronous APIs. Paper shape: S3 Standard has the highest median
(27 ms read / 40 ms write) and extreme tails (slowest read just over
10 s, ~374x the median, with p95 at 75 ms); S3 Express sits around 5 ms
with little variance; DynamoDB is slightly faster than Express but more
variable; EFS matches the low-latency group on reads but writes are
2-3x slower.
"""

import pytest

from conftest import run_registry, save_artifact
from repro.core import format_table


def test_fig10_storage_latency(benchmark):
    results = benchmark.pedantic(run_registry, args=("fig10",), rounds=1,
                                 iterations=1)
    # Per service, "<op>_<stat>_ms" metrics (p50, p95, p99, max).
    outcomes = {r.parameters["service"]: r.metrics for r in results}
    requests = results[0].parameters["requests"]
    rows = []
    for service, ms in outcomes.items():
        for op in ("read", "write"):
            rows.append([service, op,
                         f"{ms[f'{op}_p50_ms']:.1f}",
                         f"{ms[f'{op}_p95_ms']:.1f}",
                         f"{ms[f'{op}_p99_ms']:.1f}",
                         f"{ms[f'{op}_max_ms']:,.0f}"])
    table = format_table(
        ["Service", "Op", "p50 [ms]", "p95 [ms]", "p99 [ms]", "max [ms]"],
        rows, title=f"Figure 10: latency over {requests:,} requests")
    save_artifact("fig10_storage_latency", table)

    s3 = outcomes["s3-standard"]
    express = outcomes["s3-express"]
    ddb = outcomes["dynamodb"]
    efs = outcomes["efs-1"]
    # S3 Standard: 27 ms median read / 40 ms write, p95 read 75 ms.
    assert s3["read_p50_ms"] == pytest.approx(27, rel=0.05)
    assert s3["write_p50_ms"] == pytest.approx(40, rel=0.05)
    assert s3["read_p95_ms"] == pytest.approx(75, rel=0.10)
    # The slowest of a million reads lands in the seconds range
    # (paper: just over 10 s, 374x the median).
    assert s3["read_max_ms"] > 100 * s3["read_p50_ms"]
    assert s3["read_max_ms"] <= 10_500
    # S3 Standard has both the highest median and tail latencies.
    for other in (express, ddb, efs):
        assert s3["read_p50_ms"] > other["read_p50_ms"]
        assert s3["read_max_ms"] > other["read_max_ms"]
    # S3 Express: ~5 ms, consistent (p95 close to the median).
    assert express["read_p50_ms"] == pytest.approx(5, rel=0.1)
    assert express["read_p95_ms"] < 1.5 * express["read_p50_ms"]
    # DynamoDB: slightly lower median than Express, but more variable.
    assert ddb["read_p50_ms"] < express["read_p50_ms"]
    assert ddb["read_p95_ms"] / ddb["read_p50_ms"] > \
        express["read_p95_ms"] / express["read_p50_ms"]
    # EFS: reads in the low-latency group, writes 2-3x slower.
    assert efs["read_p50_ms"] < 8
    ratio = efs["write_p50_ms"] / efs["read_p50_ms"]
    assert 2.0 <= ratio <= 3.5
