"""Simulator of DynamoDB with on-demand capacity.

Calibration (Sections 2, 4.3):

* items are capped at 400 KiB;
* new on-demand tables serve slightly more than their documented quotas —
  the paper measures ~16K read and ~9.6K write IOPS;
* unused capacity accrues for up to 5 minutes of burst (Section 2);
* table throughput is saturated by a single client VM: ~380 MiB/s reads
  and ~30 MiB/s writes, with requests throttled or timing out once ~16
  clients contend;
* latency is slightly lower than S3 Express but more variable (Figure 10).
"""

from __future__ import annotations

from repro import units
from repro.network.fabric import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage.base import StorageService
from repro.storage.latency import LatencyModel

#: Figure 10 calibration: low median, wider spread than S3 Express.
DDB_READ_LATENCY = LatencyModel(median=0.004, p95=0.009,
                                tail_probability=5e-5, tail_alpha=1.4,
                                ceiling=2.0)
DDB_WRITE_LATENCY = LatencyModel(median=0.006, p95=0.014,
                                 tail_probability=5e-5, tail_alpha=1.4,
                                 ceiling=2.0)

#: Figure 9 calibration: measured table-level IOPS for on-demand tables.
DDB_READ_IOPS = 16_000.0
DDB_WRITE_IOPS = 9_600.0

#: Up to 5 minutes of unused capacity accrue as burst (Section 2).
DDB_BURST_WINDOW_S = 300.0

#: Figure 8 calibration: table throughput ceilings.
DDB_READ_BANDWIDTH = 380 * units.MiB
DDB_WRITE_BANDWIDTH = 30 * units.MiB

DDB_MAX_ITEM_SIZE = 400 * units.KiB


class DynamoDB(StorageService):
    """On-demand DynamoDB table: low latency, strict IOPS and bandwidth."""

    name = "dynamodb"
    #: Discrete requests may burst on 5 minutes of unused capacity. The
    #: fluid path caps at the quotas alone: the calibrated quotas
    #: (16K/9.6K) already include the burst headroom the paper measures
    #: over the documented 12K/4K on-demand limits.
    burst_s = DDB_BURST_WINDOW_S

    def __init__(self, env: Environment, fabric: Fabric,
                 rng: RandomStreams) -> None:
        super().__init__(env, fabric, rng,
                         read_latency=DDB_READ_LATENCY,
                         write_latency=DDB_WRITE_LATENCY,
                         read_bandwidth=DDB_READ_BANDWIDTH,
                         write_bandwidth=DDB_WRITE_BANDWIDTH,
                         max_item_size=DDB_MAX_ITEM_SIZE)
        self.read_iops = DDB_READ_IOPS
        self.write_iops = DDB_WRITE_IOPS
        # Burst buckets start full: a new table has its full burst budget.
        self._read_tokens = self.read_iops * self.burst_s
        self._write_tokens = self.write_iops * self.burst_s
        self._tokens_at = env.now
