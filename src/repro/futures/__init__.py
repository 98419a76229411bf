"""A Lithops-style futures/map-reduce programming API over the platform.

This package is the second workload family of the repro (ROADMAP item
2): instead of SQL fragments driven by ``repro.engine``, user-supplied
Python functions fan out over the simulated Lambda platform through a
:class:`~repro.futures.executor.FunctionExecutor`::

    executor = FunctionExecutor(env, platform, rng)
    futures = executor.map(fn, partition_prefix(s3, "corpus/",
                                                chunk_bytes=1024))
    done, pending = yield from executor.wait(futures)

The pieces, mirroring lithops' architecture on the virtual clock:

* :class:`~repro.futures.future.ResponseFuture` — per-call state
  machine (pending → running → success/error) with result and cost
  accessors;
* :class:`~repro.futures.monitor.JobMonitor` — per-job invocation-state
  tracking and (opt-in) time-series polling;
* :class:`~repro.futures.partitioner.DataChunk` /
  :func:`~repro.futures.partitioner.partition_prefix` — byte-range and
  object-granularity splitting of storage prefixes into mapper inputs;
* :class:`~repro.futures.invoker.Invoker` — bounded in-flight dispatch
  with seeded retries and optional speculative re-invocation;
* :mod:`~repro.futures.workloads` — deterministic end-to-end scenarios
  (the map-reduce wordcount).
"""

from repro.futures.executor import FunctionExecutor
from repro.futures.future import AttemptRecord, ResponseFuture
from repro.futures.invoker import Invoker
from repro.futures.monitor import JobMonitor
from repro.futures.partitioner import (
    DataChunk,
    partition_object,
    partition_prefix,
)

__all__ = [
    "AttemptRecord",
    "DataChunk",
    "FunctionExecutor",
    "Invoker",
    "JobMonitor",
    "ResponseFuture",
    "partition_object",
    "partition_prefix",
]
