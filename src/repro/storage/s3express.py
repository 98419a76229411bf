"""Simulator of the S3 Express One Zone storage class.

Calibration (Sections 2.2 and 4.3):

* zonal deployment gives significantly lower and less variable latency
  (median and p95 read latency ~5 ms);
* no per-prefix partition quota — the bucket is pre-warmed; account-level
  IOPS measured at ~220K reads and ~42K writes;
* throughput scales linearly like S3 Standard, with more consistent write
  IOPS behaviour;
* requests are priced by size beyond 512 KiB, and transfers carry per-GiB
  charges (which is why Express never breaks even for shuffle, Table 8).
"""

from __future__ import annotations

from repro import units
from repro.network.fabric import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage.base import StorageService
from repro.storage.errors import SlowDown
from repro.storage.latency import LatencyModel

#: Figure 10 calibration: low, consistent zonal latencies.
EXPRESS_READ_LATENCY = LatencyModel(median=0.005, p95=0.0055,
                                    tail_probability=1e-5, tail_alpha=1.6,
                                    ceiling=1.0)
EXPRESS_WRITE_LATENCY = LatencyModel(median=0.007, p95=0.008,
                                     tail_probability=1e-5, tail_alpha=1.6,
                                     ceiling=1.0)

#: Figure 9 calibration: account-level IOPS ceilings.
EXPRESS_READ_IOPS = 220_000.0
EXPRESS_WRITE_IOPS = 42_000.0

S3_EXPRESS_MAX_OBJECT_SIZE = 5 * units.TiB


class S3Express(StorageService):
    """S3 Express One Zone: pre-warmed, low-latency, account-level quotas."""

    name = "s3-express"
    throttle_error = SlowDown

    def __init__(self, env: Environment, fabric: Fabric,
                 rng: RandomStreams) -> None:
        super().__init__(env, fabric, rng,
                         read_latency=EXPRESS_READ_LATENCY,
                         write_latency=EXPRESS_WRITE_LATENCY,
                         read_bandwidth=None, write_bandwidth=None,
                         max_item_size=S3_EXPRESS_MAX_OBJECT_SIZE)
        self.read_iops = EXPRESS_READ_IOPS
        self.write_iops = EXPRESS_WRITE_IOPS
        self._read_tokens = self.read_iops
        self._write_tokens = self.write_iops
        self._tokens_at = env.now
