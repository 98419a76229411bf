"""Chaos suite runner: baseline pass, faulted pass, resilience report.

Runs a query sequence twice from the same seed — once fault-free to
establish per-query baselines, once with a :class:`FaultPlan` installed —
and assembles a :class:`ResilienceReport` quantifying what recovery cost
(extra runtime, extra cents) and what it saved (goodput under faults).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultPlan, get_plan
from repro.chaos.report import QueryOutcome, ResilienceReport
from repro.core.context import CloudSim
from repro.engine.plan import TableSource
from repro.engine.queries import QUERY_BUILDERS
from repro.faas.supervisor import RecoveryPolicy
from repro.workloads.suite import SuiteSetup, build_plan, setup_engine

#: Default query sequence of the chaos suite.
DEFAULT_QUERIES = ("tpch-q6", "tpch-q1")

#: Scan width of every plan: at least 4 fragments per stage so the
#: hedging quorum has a meaningful median to compare stragglers against.
PLAN_KWARGS = {"scan_fragments": 4}


def suite_setup(queries: tuple[str, ...]) -> SuiteSetup:
    """The small tables every chaos run loads for ``queries``."""
    return SuiteSetup(lineitem_partitions=4, orders_partitions=2,
                      clickstreams_partitions=2, rows_per_partition=96,
                      queries=tuple(queries))


def _fits(query: str) -> bool:
    """Whether ``query``'s builder takes :data:`PLAN_KWARGS` and its
    plan gives every scan fragment a partition of :func:`suite_setup`'s
    tables (a fragment with none fails at run time)."""
    try:
        plan = build_plan(query, **PLAN_KWARGS)
    except TypeError:
        return False
    partitions = {spec.name: spec.partition_count
                  for spec in suite_setup((query,)).specs()}
    return all(pipeline.fragments is None
               or not isinstance(pipeline.source, TableSource)
               or pipeline.fragments <= partitions[pipeline.source.table]
               for pipeline in plan.pipelines)


def run_chaos_suite(plan: Union[str, FaultPlan],
                    queries: tuple[str, ...] = DEFAULT_QUERIES,
                    repeats: int = 2, seed: int = 0,
                    recovery: Optional[RecoveryPolicy] = None,
                    baseline: bool = True) -> ResilienceReport:
    """Run ``queries`` x ``repeats`` under ``plan``; return the report.

    With ``baseline=True`` (default) a fault-free pass from the same
    seed runs first, so the report includes per-query recovery latency
    and cost overheads. ``baseline=False`` skips it (faster; overhead
    columns stay empty).
    """
    if isinstance(plan, str):
        plan = get_plan(plan)
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    unfit = [query for query in queries if not _fits(query)]
    if unfit:
        supported = [query for query in sorted(QUERY_BUILDERS)
                     if _fits(query)]
        raise ValueError(
            f"the chaos suite cannot run {', '.join(unfit)} with its plan "
            f"settings {PLAN_KWARGS}; it runs {', '.join(supported)}")
    if recovery is None:
        recovery = RecoveryPolicy(hedge=True)
    setup = suite_setup(queries)

    baselines: dict[tuple[str, int], tuple[float, float]] = {}
    if baseline:
        sim = CloudSim(seed=seed)
        engine = setup_engine(sim, setup, recovery=recovery)
        for run in range(repeats):
            for query in queries:
                result = sim.run(engine.run_query(
                    build_plan(query, **PLAN_KWARGS)))
                baselines[(query, run)] = (result.runtime, result.cost_cents)

    sim = CloudSim(seed=seed)
    engine = setup_engine(sim, setup, recovery=recovery)
    injector = FaultInjector(plan, rng=sim.rng)
    injector.install(platform=sim.platform,
                     services=list(engine.storage.values()))
    outcomes: list[QueryOutcome] = []
    for run in range(repeats):
        for query in queries:
            plan_obj = build_plan(query, **PLAN_KWARGS)
            base = baselines.get((query, run), (None, None))
            try:
                result = sim.run(engine.run_query(plan_obj))
            except Exception as exc:  # noqa: BLE001 - reported, not re-raised
                outcomes.append(QueryOutcome(
                    query=query, run=run, ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    baseline_runtime_s=base[0],
                    baseline_cost_cents=base[1]))
                # The failed query abandoned its barriers mid-rendezvous;
                # drop them so the next query starts clean.
                engine.barriers.clear(plan_obj.query_id)
                continue
            outcomes.append(QueryOutcome(
                query=query, run=run, ok=True,
                runtime_s=result.runtime,
                cost_cents=result.cost_cents,
                retry_cost_cents=result.retry_cost_cents,
                retries=result.retries, hedges=result.hedges,
                hedge_wins=result.hedge_wins,
                failed_attempts=result.failed_attempts,
                baseline_runtime_s=base[0],
                baseline_cost_cents=base[1]))
    return ResilienceReport(
        plan=plan.to_dict(), seed=seed, outcomes=outcomes,
        fault_timeline=injector.timeline(),
        fault_counts=injector.fault_counts,
        dropped_fault_events=injector.state.dropped_events)
