"""Simulator of Amazon EFS with elastic throughput.

Calibration (Sections 2, 4.3):

* per-filesystem throughput quotas of 20 GiB/s reads and 5 GiB/s writes —
  the paper's throughput measurements converge to these (Figure 8);
* achievable IOPS fall short of the documented per-filesystem quotas
  (250K reads / 50K writes) by more than an order of magnitude; the
  measured ceilings are modeled here as ~15K reads and ~2K writes;
* sharding over two filesystems doubles read IOPS but writes do not
  scale, and reads do not scale beyond two filesystems (Figure 9);
* read latency is low and consistent like S3 Express; write latency is
  2-3x higher (Figure 10).
"""

from __future__ import annotations

from repro import units
from repro.network.fabric import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage.base import StorageService
from repro.storage.latency import LatencyModel

#: Figure 10 calibration.
EFS_READ_LATENCY = LatencyModel(median=0.005, p95=0.007,
                                tail_probability=2e-5, tail_alpha=1.5,
                                ceiling=2.0)
EFS_WRITE_LATENCY = LatencyModel(median=0.014, p95=0.020,
                                 tail_probability=2e-5, tail_alpha=1.5,
                                 ceiling=2.0)

#: Documented elastic-throughput quotas per filesystem [23].
EFS_READ_BANDWIDTH_QUOTA = 20 * units.GiB
EFS_WRITE_BANDWIDTH_QUOTA = 5 * units.GiB

#: Documented per-filesystem IOPS quotas (missed by >10x in practice).
EFS_READ_IOPS_QUOTA = 250_000.0
EFS_WRITE_IOPS_QUOTA = 50_000.0

#: Measured, achievable per-filesystem IOPS ceilings (Figure 9).
EFS_READ_IOPS_ACHIEVABLE = 15_000.0
EFS_WRITE_IOPS_ACHIEVABLE = 2_000.0

#: Read IOPS double when sharding over two filesystems, then stop scaling.
EFS_MAX_SCALING_FILESYSTEMS = 2


class EFS(StorageService):
    """Elastic-throughput EFS, optionally sharded over several filesystems."""

    name = "efs"

    def __init__(self, env: Environment, fabric: Fabric, rng: RandomStreams,
                 filesystem_count: int = 1) -> None:
        if filesystem_count < 1:
            raise ValueError("filesystem_count must be >= 1")
        self.filesystem_count = filesystem_count
        scaling = min(filesystem_count, EFS_MAX_SCALING_FILESYSTEMS)
        super().__init__(
            env, fabric, rng,
            read_latency=EFS_READ_LATENCY,
            write_latency=EFS_WRITE_LATENCY,
            read_bandwidth=EFS_READ_BANDWIDTH_QUOTA * filesystem_count,
            write_bandwidth=EFS_WRITE_BANDWIDTH_QUOTA * filesystem_count,
            max_item_size=None)
        self.read_iops = EFS_READ_IOPS_ACHIEVABLE * scaling
        # Writes do not benefit from sharding in the paper's measurements.
        self.write_iops = EFS_WRITE_IOPS_ACHIEVABLE
        self._read_tokens = self.read_iops
        self._write_tokens = self.write_iops
        self._tokens_at = env.now
