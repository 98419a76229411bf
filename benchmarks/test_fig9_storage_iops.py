"""Figure 9: operations per second per serverless storage system.

128 nodes x 32 threads send 1 KiB requests against fresh containers.
Paper shape: standard S3 serves roughly one prefix partition's worth
(lowest); S3 Express tops the field (~220K reads / 42K writes);
DynamoDB lands slightly above its documented on-demand quotas
(~16K / 9.6K); EFS misses its documented per-filesystem quotas by more
than an order of magnitude, and sharding over two filesystems doubles
read IOPS only.
"""

import pytest

from conftest import run_registry, save_artifact
from repro.core import format_table
from repro.storage.efs import EFS_READ_IOPS_QUOTA, EFS_WRITE_IOPS_QUOTA


def test_fig9_storage_iops(benchmark):
    results = benchmark.pedantic(run_registry, args=("fig9",), rounds=1,
                                 iterations=1)
    outcomes = {r.parameters["service"]: r.metrics for r in results}
    rows = [[name, f"{o['read_iops']:,.0f}", f"{o['write_iops']:,.0f}"]
            for name, o in outcomes.items()]
    table = format_table(["Service", "Read IOPS", "Write IOPS"], rows,
                         title="Figure 9: operations per second")
    save_artifact("fig9_storage_iops", table)

    # Standard S3: one prefix partition's request rates out of the box.
    assert outcomes["s3-standard"]["read_iops"] == pytest.approx(5_500)
    assert outcomes["s3-standard"]["write_iops"] == pytest.approx(3_500)
    # S3 Express: highest IOPS of the comparison.
    assert outcomes["s3-express"]["read_iops"] == pytest.approx(220_000)
    assert outcomes["s3-express"]["write_iops"] == pytest.approx(42_000)
    for other in ("s3-standard", "dynamodb", "efs-1", "efs-2"):
        assert outcomes["s3-express"]["read_iops"] > \
            outcomes[other]["read_iops"]
    # DynamoDB: slightly above the documented on-demand table quotas.
    assert outcomes["dynamodb"]["read_iops"] == pytest.approx(16_000)
    assert outcomes["dynamodb"]["write_iops"] == pytest.approx(9_600)
    # EFS misses its per-filesystem quotas by more than an order of
    # magnitude ...
    assert outcomes["efs-1"]["read_iops"] < EFS_READ_IOPS_QUOTA / 10
    assert outcomes["efs-1"]["write_iops"] < EFS_WRITE_IOPS_QUOTA / 10
    # ... read IOPS double with a second filesystem, writes do not.
    assert outcomes["efs-2"]["read_iops"] == pytest.approx(
        2 * outcomes["efs-1"]["read_iops"])
    assert outcomes["efs-2"]["write_iops"] == pytest.approx(
        outcomes["efs-1"]["write_iops"])
