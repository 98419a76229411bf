"""Figure 8: aggregated read/write throughput of serverless storage.

1 to 128 client VMs (32 I/O threads each) read/write large objects:
64 MiB against S3 variants, 400 KiB items against DynamoDB, 4 MiB files
against EFS. Paper shape: both S3 variants scale linearly to the
~250 GiB/s of generated load; DynamoDB saturates at ~380 MiB/s reads and
~30 MiB/s writes from a single client; EFS converges to its 20 / 5 GiB/s
per-filesystem quotas.
"""

import pytest

from conftest import run_registry, save_artifact
from repro import units
from repro.core import format_table
from repro.pricing.calculator import cost_per_gib_per_s_read

CLIENTS = [1, 4, 16, 64, 128]


def test_fig8_storage_throughput(benchmark):
    results = benchmark.pedantic(run_registry, args=("fig8",), rounds=1,
                                 iterations=1)
    cells = {(r.parameters["service"], r.parameters["direction"],
              r.parameters["clients"]): r.metrics["achieved_gib_s"]
             for r in results}
    services = list(dict.fromkeys(service for service, __, __ in cells))
    rows = []
    for service in services:
        for direction in ("read", "write"):
            series = [f"{cells[(service, direction, c)]:.2f}"
                      for c in CLIENTS]
            rows.append([service, direction, *series])
    table = format_table(
        ["Service", "Op", *[f"{c} VMs" for c in CLIENTS]], rows,
        title="Figure 8: aggregate storage throughput [GiB/s]")
    save_artifact("fig8_storage_throughput", table)

    # Both S3 variants scale linearly up to the generated load
    # (~250 GiB/s at 128 clients).
    for service in ("s3-standard", "s3-express"):
        reads = [cells[(service, "read", c)] for c in CLIENTS]
        assert reads[-1] == pytest.approx(128 * reads[0], rel=0.02)
        assert 150 <= reads[-1] <= 350
    # Standard S3 writes lag Express writes (less consistent IOPS).
    assert cells[("s3-standard", "write", 128)] < \
        cells[("s3-express", "write", 128)]
    # DynamoDB: saturated by a single client VM.
    ddb_1 = cells[("dynamodb", "read", 1)]
    ddb_128 = cells[("dynamodb", "read", 128)]
    assert ddb_1 == pytest.approx(380 * units.MiB / units.GiB, rel=0.05)
    assert ddb_128 == pytest.approx(ddb_1, rel=0.05)
    assert cells[("dynamodb", "write", 128)] == pytest.approx(
        30 * units.MiB / units.GiB, rel=0.1)
    # EFS converges to the 20 / 5 GiB/s filesystem quotas.
    assert cells[("efs-1", "read", 64)] == pytest.approx(20, rel=0.05)
    assert cells[("efs-1", "write", 64)] == pytest.approx(5, rel=0.05)
    # Price per GiB/s read: S3 is by far the most cost-efficient
    # (0.00064 vs 6.55 vs 3.00 cents, Section 4.3.1).
    s3 = cost_per_gib_per_s_read("s3-standard", 64 * units.MiB)
    ddb = cost_per_gib_per_s_read("dynamodb", 400 * units.KiB)
    efs = cost_per_gib_per_s_read("efs", 4 * units.MiB)
    assert s3 == pytest.approx(0.00064, rel=0.05)
    assert ddb == pytest.approx(6.55, rel=0.05)
    assert efs == pytest.approx(3.00, rel=0.05)
