"""Serverless storage service simulators.

Implements functional (bytes actually stored) simulators of the four AWS
serverless storage options the paper evaluates:

* :class:`~repro.storage.s3.S3Standard` — object store with prefix
  partitions, per-partition IOPS admission (5.5K reads / 3.5K writes),
  gradual partition splitting under sustained load, merging after extended
  idle, and a heavy-tailed latency distribution.
* :class:`~repro.storage.s3express.S3Express` — the zonal, pre-warmed
  variant: no per-prefix quota, far higher account IOPS, low consistent
  latency, but per-byte transfer charges.
* :class:`~repro.storage.dynamodb.DynamoDB` — on-demand key-value store:
  400 KiB item cap, table-level IOPS quotas with burst capacity, low but
  variable latency, strict throughput ceilings.
* :class:`~repro.storage.efs.EFS` — elastic network filesystem: balanced
  latency, hard per-filesystem throughput (20 / 5 GiB/s) and IOPS ceilings
  well below the documented quotas.

All services count every request — including failures and retries — through
a client hook, mirroring the paper's cost-accounting methodology
(Section 4.1).
"""

from repro.storage.base import (
    RequestStats,
    RequestType,
    StorageObject,
    StorageService,
)
from repro.storage.errors import (
    ItemTooLarge,
    NoSuchKey,
    RequestTimeout,
    SlowDown,
    StorageError,
    Throttled,
)
from repro.storage.latency import LatencyModel
from repro.storage.s3 import S3Standard
from repro.storage.s3express import S3Express
from repro.storage.dynamodb import DynamoDB
from repro.storage.efs import EFS
from repro.storage.client import RetryingClient

__all__ = [
    "DynamoDB",
    "EFS",
    "ItemTooLarge",
    "LatencyModel",
    "NoSuchKey",
    "RequestStats",
    "RequestTimeout",
    "RequestType",
    "RetryingClient",
    "S3Express",
    "S3Standard",
    "SlowDown",
    "StorageError",
    "StorageObject",
    "StorageService",
    "Throttled",
]
