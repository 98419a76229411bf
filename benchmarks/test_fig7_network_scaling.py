"""Figure 7: aggregated function network throughput, with/without VPC.

32 to 256 concurrent network I/O functions measure against an iPerf
server cluster. The paper's findings: burst and baseline bandwidth scale
horizontally with the function count — except inside a customer-owned
VPC, where aggregate throughput hits a hard ~20 GiB/s ceiling.
"""

import pytest

from conftest import run_registry, save_artifact
from repro.core import format_table

COUNTS = [32, 64, 128, 256]


def test_fig7_network_scaling(benchmark):
    results = benchmark.pedantic(run_registry, args=("fig7",), rounds=1,
                                 iterations=1)
    peaks = {("vpc" if r.parameters["vpc"] else "no-vpc",
              r.parameters["functions"]): r.metrics["peak_gib_s"]
             for r in results}
    rows = [[setting, count, f"{rate:.1f}"]
            for (setting, count), rate in peaks.items()]
    table = format_table(["Setting", "Functions", "Peak [GiB/s]"], rows,
                         title="Figure 7: aggregate network throughput")
    save_artifact("fig7_network_scaling", table)

    # Outside a VPC, burst bandwidth scales horizontally: peak tracks
    # count x 1.2 GiB/s.
    for count in COUNTS:
        assert peaks[("no-vpc", count)] == pytest.approx(count * 1.2,
                                                         rel=0.15)
    # Inside a customer-owned VPC, a hard ~20 GiB/s limit appears.
    for count in (128, 256):
        assert peaks[("vpc", count)] <= 20 * 1.02
        assert peaks[("vpc", count)] >= 18
    # The cap makes VPC throughput flat while non-VPC keeps scaling.
    assert peaks[("no-vpc", 256)] > 10 * peaks[("vpc", 256)]
