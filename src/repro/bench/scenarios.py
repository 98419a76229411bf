"""The perf macro-scenarios: what `repro bench` measures.

Four workloads cover the simulator's hot paths end to end:

* ``serving`` — the :mod:`examples/multi_tenant_serving` workload: the
  3-tenant Poisson mix at 6x overload, run under FIFO and weighted fair
  share over the same trace. Dominated by kernel event dispatch, the
  fabric's per-flow rate updates, and repeated columnar reads of the
  same partitions (every query re-scans the same tables).
* ``q6-burst`` — TPC-H Q6 fanned out to 900 single-partition workers
  (the paper's Sec. 5 scale direction). Dominated by fabric rate
  recomputation across hundreds of concurrent flows and per-fragment
  plan/scan overheads.
* ``chaos-q12`` — the shuffle-heavy Q12 under the ``demo-outage`` fault
  plan with recovery on. Exercises retries/hedges, shuffle slice reads,
  and the aggregate operators.
* ``futures-mapreduce`` — the futures wordcount over a byte-range
  partitioned S3 prefix. Exercises the futures executor/invoker fan-out,
  ranged storage reads, and per-future cost accounting.
* ``sharded-serving`` — a Zipf trace over a million distinct tenants
  replayed through the sharded serving fabric (router, epoch-fenced
  rebalancing, one injected shard failure). Its ``full_scans`` check
  pins the per-event cost to O(1) in tenant count: the replay counts
  every full iteration over a tenant-keyed dict and the committed
  value is zero.

Every scenario returns a dict of *deterministic* check values (query
counts, simulated runtimes, costs, scheduled-event counts). They must be
bit-identical run to run and across perf refactors — the bench harness
and the CI smoke gate fail on any drift, so a "speedup" can never come
from quietly simulating less.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Scenario:
    """One macro-benchmark: an untimed setup and a timed body."""

    name: str
    description: str
    #: ``build(smoke)`` does untimed setup and returns the timed body;
    #: the body returns the deterministic check dict.
    build: Callable[[bool], Callable[[], dict]]


def _digest(text: str) -> str:
    """Short stable fingerprint of a canonical-JSON artifact."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- serving ------------------------------------------------------------------

def _build_serving(smoke: bool) -> Callable[[], dict]:
    from repro.serve import default_tenant_mix, run_serving_workload

    window_s = 120.0 if smoke else 600.0

    def body() -> dict:
        checks: dict = {}
        for policy in ("fifo", "fair"):
            outcome = run_serving_workload(
                default_tenant_mix(rate_scale=6.0), policy=policy,
                window_s=window_s, seed=1, max_concurrent_queries=1)
            checks[f"{policy}_completed"] = outcome.total_completed
            checks[f"{policy}_shed"] = outcome.total_shed
            checks[f"{policy}_cost_usd"] = round(outcome.total_cost_usd, 9)
            checks[f"{policy}_digest"] = _digest(outcome.to_json())
        return checks

    return body


# -- q6 burst -----------------------------------------------------------------

def _build_q6_burst(smoke: bool) -> Callable[[], dict]:
    from repro.core import CloudSim
    from repro.datagen import load_table, scaled_spec
    from repro.engine import SkyriseEngine
    from repro.engine.queries import tpch_q6

    workers = 64 if smoke else 900
    sim = CloudSim(seed=14)
    s3 = sim.s3()
    spec = scaled_spec("lineitem", workers, rows_per_partition=16)
    metadata = sim.run(load_table(sim.env, s3, spec))
    engine = SkyriseEngine(sim.env, sim.platform, storage={"s3-standard": s3})
    engine.register_table(metadata)
    engine.deploy()

    def body() -> dict:
        events_before = sim.env.scheduled_events
        result = sim.run(engine.run_query(tpch_q6(scan_fragments=workers)))
        return {
            "workers": workers,
            "runtime_s": round(result.runtime, 9),
            "rows": len(result.batch),
            "requests": result.requests,
            "cost_cents": round(result.cost_cents, 9),
            "events": sim.env.scheduled_events - events_before,
        }

    return body


# -- chaos q12 ----------------------------------------------------------------

def _build_chaos_q12(smoke: bool) -> Callable[[], dict]:
    from repro.chaos.runner import run_chaos_suite
    from repro.workloads.suite import SuiteSetup

    repeats = 2 if smoke else 6
    setup = SuiteSetup(lineitem_partitions=12, orders_partitions=6,
                       rows_per_partition=96, queries=("tpch-q12",))
    plan_kwargs = {"lineitem_fragments": 12, "orders_fragments": 6,
                   "join_fragments": 8}

    def body() -> dict:
        report = run_chaos_suite(
            "demo-outage", queries=("tpch-q12",), repeats=repeats, seed=0,
            plan_kwargs=plan_kwargs, setup=setup)
        return {
            "repeats": repeats,
            "goodput": round(report.goodput, 9),
            "unrecovered": report.unrecovered,
            "digest": _digest(report.to_json()),
        }

    return body


# -- futures map-reduce --------------------------------------------------------

def _build_futures_mapreduce(smoke: bool) -> Callable[[], dict]:
    from repro.futures.workloads import run_wordcount

    objects = 16 if smoke else 64
    chunks_per_object = 4 if smoke else 8

    def body() -> dict:
        outcome = run_wordcount(seed=7, objects=objects,
                                chunks_per_object=chunks_per_object)
        return {
            "chunks": outcome["chunks"],
            "records": outcome["records"],
            "runtime_s": outcome["runtime_s"],
            "total_cost_usd": outcome["total_cost_usd"],
            "cost_check": outcome["cost_check"],
            "digest": outcome["digest"],
        }

    return body


# -- sharded serving -----------------------------------------------------------

def _sharded_serving_config(smoke: bool):
    from repro.shard import ReplayConfig

    config = ReplayConfig(fail_at=(150.0,), fault_plan="shard-failure")
    if smoke:
        config = config.smoke()
    return config


def _sharded_serving_checks(result) -> dict:
    report = result.report
    return {
        "distinct_tenants": result.distinct_tenants,
        "completed": report["completed"],
        "shed": report["shed"],
        "recovered": report["recovered"],
        "balanced": report["balanced"],
        "full_scans": result.full_scans,
        "failures": result.failures_injected,
        "shards_final": result.shards_final,
        "digest": result.digest()[:16],
    }


def _build_sharded_serving(smoke: bool) -> Callable[[], dict]:
    from repro.shard import run_replay

    config = _sharded_serving_config(smoke)

    def body() -> dict:
        return _sharded_serving_checks(run_replay(config))

    return body


SCENARIOS: dict[str, Scenario] = {
    "serving": Scenario(
        name="serving",
        description="multi-tenant serving window (fifo + fair, 6x overload)",
        build=_build_serving),
    "q6-burst": Scenario(
        name="q6-burst",
        description="TPC-H Q6 burst scan at 900 single-partition workers",
        build=_build_q6_burst),
    "chaos-q12": Scenario(
        name="chaos-q12",
        description="shuffle-heavy Q12 under the demo-outage fault plan",
        build=_build_chaos_q12),
    "futures-mapreduce": Scenario(
        name="futures-mapreduce",
        description="futures map-reduce wordcount over a partitioned "
                    "S3 prefix",
        build=_build_futures_mapreduce),
    "sharded-serving": Scenario(
        name="sharded-serving",
        description="million-tenant Zipf replay over the sharded "
                    "serving fabric (rebalance + shard failure)",
        build=_build_sharded_serving),
}
