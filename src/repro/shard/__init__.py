"""Sharded serving fabric: consistent-hash routing at million-tenant scale.

The serving layer's :class:`~repro.serve.gateway.QueryGateway` models
one admission domain; this package scales it out into a *fleet* of
gateway shards behind a router, the shape Skyrise's elastic serving
tier (and every commodity serverless platform's per-account concurrency
ceiling) forces at millions-of-users scale:

* :mod:`repro.shard.ring` — a consistent-hash ring of virtual nodes
  mapping tenant keys to shards, with targeted split/merge moves that
  remap only the affected shard's key ranges;
* :mod:`repro.shard.directory` — the :class:`PartitionDirectory`, the
  authoritative shard map with per-shard versioned epochs that fence
  stale routes;
* :mod:`repro.shard.router` — the :class:`ShardRouter` fronting the
  gateway fleet: O(1)-per-event routing with a route cache, lazy tenant
  materialization, and epoch-fenced retry on rebalanced routes;
* :mod:`repro.shard.rebalance` — the :class:`Rebalancer`: splits hot
  shards, merges cold ones, and re-homes the backlog of failed shards,
  deterministically on the virtual clock;
* metrics — each shard keeps one streaming
  :class:`~repro.serve.metrics.ServingTally` (the tally DES serving
  keeps per tenant, with a fixed-width latency histogram), and
  ``ShardRouter.roll_up`` merges them into the fleet report (aggregate
  p50/p99, SLO, shed/recovered) with a conservation check (offered =
  completed + shed + failed + pending);
* :mod:`repro.shard.replay` — deterministic high-QPS trace replay over
  the fabric (the ledger's ``tenant-replay`` workloads and
  ``repro shard --smoke``): one kernel that routes each inter-tick
  slice of the trace in a batch and replays it shard by shard, pinned
  byte-for-byte against an event-at-a-time oracle the tests keep.
"""

from repro.shard.directory import PartitionDirectory, Route
from repro.shard.rebalance import RebalanceEvent, Rebalancer
from repro.shard.replay import ReplayConfig, run_replay
from repro.shard.ring import HashRing
from repro.shard.router import ShardRouter

__all__ = [
    "HashRing",
    "PartitionDirectory",
    "RebalanceEvent",
    "Rebalancer",
    "ReplayConfig",
    "Route",
    "ShardRouter",
    "run_replay",
]
