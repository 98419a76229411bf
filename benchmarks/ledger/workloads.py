"""The ledger's five workloads, built from the program's public calls only.

Each workload is an untimed ``build`` that returns a timed ``body``. A
body returns an :class:`Outcome`: the deterministic simulated values the
checks run on, the number of work units it did, and the model counters
the per-layer table prints. Nothing here reads the host clock; the
``span`` argument is the ledger's own phase timer, wrapped around each
public call so that the trace says which call the time went to.

Why these five, what each stresses and what it deliberately leaves
alone is recorded in ``README.md`` and, in one line each, in
``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
from dataclasses import dataclass
from typing import Callable, ContextManager, Optional

SpanFn = Callable[[str], ContextManager]


@dataclass
class Outcome:
    """What one body produced."""

    #: Deterministic simulated values: identical on every repeat, equal
    #: to ``pins.json`` at seed 0, and the input of the invariants.
    observed: dict
    #: Work units done (the denominator of ``units_per_s``).
    units: int
    #: Model counters read from public attributes, by per-layer name.
    counters: dict


@dataclass(frozen=True)
class Workload:
    name: str
    #: What one work unit is.
    unit: str
    #: Modules imported (and timed as ``import``) before the first build.
    modules: tuple
    #: ``build(seed, tiny, span)`` does the untimed set-up and returns
    #: the timed body.
    build: Callable[[int, bool, SpanFn], Callable[[], Outcome]]
    #: ``invariants(observed)`` → check name → held; true at any seed.
    invariants: Callable[[dict], dict]
    #: Checks against a published reference, where there is one; they
    #: hold at full size and seed 0, where the repo's own test has them.
    published: Optional[Callable[[dict], dict]] = None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- the DES query workloads ---------------------------------------------------

def _des_counts(sim, s3, engine) -> tuple:
    cache = engine.columnar_cache
    return (sim.env.scheduled_events, s3.stats.total(), s3.stats.failures,
            cache.hits, cache.misses)


def _des_counters(before: tuple, after: tuple, result) -> dict:
    events, requests, failed, hits, misses = (
        b - a for a, b in zip(before, after))
    return {
        "sim.events": events,
        "storage.requests": requests,
        "storage.failed": failed,
        "storage.failed_share": failed / requests,
        "formats.cache_hits": hits,
        "formats.cache_misses": misses,
        "formats.cache_hit_share": hits / (hits + misses),
        "engine.sim_runtime_s": result.runtime,
        "engine.sim_cost_cents": result.cost_cents,
    }


#: The published Table 6 statistics the full-scale test already asserts,
#: with that test's tolerance bands: (observed key, paper value, rel tol).
PAPER_TABLE6 = (
    ("q6.cumulated_s", 515.9, 0.25),
    ("q6.cost_cents", 4.87, 0.25),
    ("q6.requests", 1_401, 0.10),
    ("q6.break_even_qph", 558, 0.25),
    ("q6.runtime_s", 5.7, 0.45),
    ("q12.cumulated_s", 2_227.3, 0.30),
    ("q12.cost_cents", 21.19, 0.30),
    ("q12.runtime_s", 19.2, 0.45),
)


def paper_error_pct(observed: dict) -> float:
    """Mean absolute relative error against the paper's Table 6, in %."""
    errors = [abs(observed[key] - paper) / paper
              for key, paper, _ in PAPER_TABLE6]
    return 100.0 * sum(errors) / len(errors)


def table6_bands(observed: dict) -> dict:
    """The seed-0 tolerance checks of ``test_table6_full_scale.py``."""
    checks = {f"band.{key}": abs(observed[key] - paper) <= tol * paper
              for key, paper, tol in PAPER_TABLE6}
    checks["band.q12_requests_over_10x_q6"] = (
        observed["q12.requests"] > 10 * observed["q6.requests"])
    return checks


def _query_stats(prefix: str, result, break_even: float) -> dict:
    return {
        f"{prefix}.runtime_s": round(result.runtime, 9),
        f"{prefix}.cumulated_s": round(result.cumulated_time, 9),
        f"{prefix}.cost_cents": round(result.cost_cents, 9),
        f"{prefix}.break_even_qph": round(break_even, 9),
        f"{prefix}.requests": result.requests,
        f"{prefix}.peak_to_average": round(result.peak_to_average_nodes(), 9),
        f"{prefix}.rows": result.batch.num_rows,
    }


def _build_q12_sf1000(seed: int, tiny: bool, span: SpanFn):
    """Table 6 as ``benchmarks/test_table6_full_scale.py`` builds it."""
    from repro.core import CloudSim
    from repro.datagen import load_table, scaled_spec
    from repro.engine import SkyriseEngine
    from repro.engine.queries import tpch_q6, tpch_q12
    from repro.pricing import ec2_instance, faas_break_even_queries_per_hour

    lineitem_parts, orders_parts = (24, 6) if tiny else (996, 249)
    q6_fragments = 8 if tiny else 201
    lineitem_frags, orders_frags, join_frags = ((8, 2, 4) if tiny
                                                else (235, 49, 128))
    with span("build.datagen_load"):
        sim = CloudSim(seed=60 + seed)
        s3 = sim.s3()
        lineitem = sim.run(load_table(sim.env, s3, scaled_spec(
            "lineitem", lineitem_parts, rows_per_partition=16)))
        orders = sim.run(load_table(sim.env, s3, scaled_spec(
            "orders", orders_parts, rows_per_partition=64)))
    with span("build.deploy"):
        engine = SkyriseEngine(sim.env, sim.platform,
                               storage={"s3-standard": s3})
        engine.register_table(lineitem)
        engine.register_table(orders)
        engine.deploy()
    with span("build.q6"):
        q6 = sim.run(engine.run_query(tpch_q6(scan_fragments=q6_fragments)))
    vm_hourly_usd = ec2_instance("c6g.xlarge").hourly_usd

    def body() -> Outcome:
        before = _des_counts(sim, s3, engine)
        with span("body.q12"):
            q12 = sim.run(engine.run_query(tpch_q12(
                lineitem_fragments=lineitem_frags,
                orders_fragments=orders_frags,
                join_fragments=join_frags)))
        counters = _des_counters(before, _des_counts(sim, s3, engine), q12)
        observed = _query_stats("q6", q6, faas_break_even_queries_per_hour(
            q6.cost_cents / 100.0, vm_hourly_usd, q6.peak_fragments))
        observed.update(_query_stats(
            "q12", q12, faas_break_even_queries_per_hour(
                q12.cost_cents / 100.0, vm_hourly_usd,
                lineitem_frags + orders_frags)))
        observed["q12.shipmodes"] = ",".join(
            sorted(q12.batch.column("l_shipmode")))
        observed["events"] = counters["sim.events"]
        observed["s3_requests"] = counters["storage.requests"]
        observed["s3_failed"] = counters["storage.failed"]
        if not tiny:
            counters["engine.paper_err_pct"] = paper_error_pct(observed)
        return Outcome(observed, counters["sim.events"], counters)

    return body


def _q12_invariants(observed: dict) -> dict:
    return {"q6_one_row": observed["q6.rows"] == 1,
            "q12_mail_and_ship": observed["q12.shipmodes"] == "MAIL,SHIP"}


def _build_q6_burst(seed: int, tiny: bool, span: SpanFn):
    """TPC-H Q6, one worker per partition, as ``repro.bench`` builds it."""
    from repro.core import CloudSim
    from repro.datagen import load_table, scaled_spec
    from repro.engine import SkyriseEngine
    from repro.engine.queries import tpch_q6

    workers = 16 if tiny else 900
    with span("build.datagen_load"):
        sim = CloudSim(seed=14 + seed)
        s3 = sim.s3()
        metadata = sim.run(load_table(sim.env, s3, scaled_spec(
            "lineitem", workers, rows_per_partition=16)))
    with span("build.deploy"):
        engine = SkyriseEngine(sim.env, sim.platform,
                               storage={"s3-standard": s3})
        engine.register_table(metadata)
        engine.deploy()

    def body() -> Outcome:
        before = _des_counts(sim, s3, engine)
        with span("body.q6"):
            result = sim.run(engine.run_query(
                tpch_q6(scan_fragments=workers)))
        counters = _des_counters(before, _des_counts(sim, s3, engine),
                                 result)
        observed = {
            "workers": workers,
            "runtime_s": round(result.runtime, 9),
            "rows": len(result.batch),
            "requests": result.requests,
            "cost_cents": round(result.cost_cents, 9),
            "events": counters["sim.events"],
        }
        return Outcome(observed, counters["sim.events"], counters)

    return body


def _q6_invariants(observed: dict) -> dict:
    return {"one_row": observed["rows"] == 1}


# -- serving -------------------------------------------------------------------

SERVING_POLICIES = ("fifo", "fair")


def _build_serving_mix(seed: int, tiny: bool, span: SpanFn):
    """The 3-tenant mix at 6x overload under FIFO, then fair share."""
    from repro.serve import default_tenant_mix, run_serving_workload

    window_s = 60.0 if tiny else 600.0

    def body() -> Outcome:
        observed: dict = {}
        offered = shed = 0
        cost_usd = 0.0
        for policy in SERVING_POLICIES:
            with span(f"body.{policy}"):
                outcome = run_serving_workload(
                    default_tenant_mix(rate_scale=6.0), policy=policy,
                    window_s=window_s, seed=1 + seed,
                    max_concurrent_queries=1)
            observed[f"{policy}_offered"] = outcome.total_offered
            observed[f"{policy}_completed"] = outcome.total_completed
            observed[f"{policy}_shed"] = outcome.total_shed
            observed[f"{policy}_failed"] = outcome.total_failed
            observed[f"{policy}_cost_usd"] = round(outcome.total_cost_usd, 9)
            observed[f"{policy}_digest"] = _digest(outcome.to_json())
            offered += outcome.total_offered
            shed += outcome.total_shed
            cost_usd += outcome.total_cost_usd
        counters = {"serve.offered": offered,
                    "serve.shed_share": shed / offered,
                    "engine.sim_cost_cents": cost_usd * 100.0}
        return Outcome(observed, offered, counters)

    return body


def _serving_invariants(observed: dict) -> dict:
    return {
        f"{policy}_conserved": observed[f"{policy}_offered"] == (
            observed[f"{policy}_completed"] + observed[f"{policy}_shed"]
            + observed[f"{policy}_failed"])
        for policy in SERVING_POLICIES}


# -- sharded replays -----------------------------------------------------------

def replay_config(seed: int, smoke: bool, tiny: bool = False):
    """The pinned shard-failure replay, shifted by ``seed``."""
    from repro.shard import ReplayConfig

    config = ReplayConfig(fail_at=(150.0,), fault_plan="shard-failure")
    if smoke or tiny:
        config = config.smoke()
    if tiny:
        config = dataclasses.replace(config, tenants=6_000, events=9_000)
    return dataclasses.replace(config, seed=config.seed + seed)


def resolve_replay_kernel() -> Callable:
    """The fastest in-process kernel ``repro.shard`` exports today.

    Decided once, at build time, from the public names and signature —
    never by catching an exception from the timed call — so folding the
    two kernels into ``run_replay`` needs no edit here.
    """
    import repro.shard as shard

    kernel = getattr(shard, "run_parallel_replay", None)
    if kernel is None:
        return shard.run_replay
    if "workers" in inspect.signature(kernel).parameters:
        return lambda config: kernel(config, workers=0)
    return kernel


def resolve_observed_kernel() -> Callable:
    """``run_obs_replay`` on the same kernel as :func:`resolve_replay_kernel`."""
    from repro.obs.scenario import run_obs_replay

    parameters = inspect.signature(run_obs_replay).parameters
    if "parallel" in parameters and "workers" in parameters:
        return lambda config: run_obs_replay(config, parallel=True, workers=0)
    return run_obs_replay


def _replay_outcome(result, extra_observed: dict, extra_counters: dict):
    report = result.report
    observed = {
        "distinct_tenants": result.distinct_tenants,
        "offered": report["offered"],
        "completed": report["completed"],
        "shed": report["shed"],
        "failed": report["failed"],
        "recovered": report["recovered"],
        "balanced": report["balanced"],
        "full_scans": result.full_scans,
        "failures": result.failures_injected,
        "shards_final": result.shards_final,
        "stale_retries": result.stale_retries,
        "migrated": result.migrated,
        "events": result.events,
        "digest": result.digest()[:16],
    }
    observed.update(extra_observed)
    counters = {
        "serve.offered": report["offered"],
        "serve.shed_share": report["shed"] / report["offered"],
        "shard.events": result.events,
        "shard.stale_retries": result.stale_retries,
        "shard.migrated": result.migrated,
        "shard.full_scans": result.full_scans,
    }
    counters.update(extra_counters)
    return Outcome(observed, result.events, counters)


def _build_tenant_replay(seed: int, tiny: bool, span: SpanFn):
    """The million-tenant Zipf replay with one injected shard failure."""
    config = replay_config(seed, smoke=False, tiny=tiny)
    kernel = resolve_replay_kernel()

    def body() -> Outcome:
        with span("body.replay"):
            result = kernel(config)
        return _replay_outcome(result, {}, {})

    return body


def _build_tenant_replay_observed(seed: int, tiny: bool, span: SpanFn):
    """The smoke-size replay with the full obs plane attached."""
    config = replay_config(seed, smoke=True, tiny=tiny)
    kernel = resolve_observed_kernel()

    def body() -> Outcome:
        with span("body.replay_observed"):
            result = kernel(config)
        sampling = result.sampling
        return _replay_outcome(
            result.replay,
            {"obs_digest": result.digest()[:16],
             "alerts": result.alerts_fired,
             "traces_kept": sampling["kept"],
             "traces_dropped": sampling["dropped"],
             "sampler_conserved": bool(sampling["conserved"])},
            {"obs.traces_kept": sampling["kept"],
             "obs.traces_dropped": sampling["dropped"],
             "obs.alerts_fired": result.alerts_fired})

    return body


def _replay_invariants(observed: dict) -> dict:
    checks = {
        "fleet_conserved": observed["offered"] == (
            observed["completed"] + observed["shed"] + observed["failed"]),
        "balanced": observed["balanced"] is True,
        "no_full_scans": observed["full_scans"] == 0,
        "every_event_offered": observed["offered"] == observed["events"],
    }
    if "sampler_conserved" in observed:
        checks["sampler_conserved"] = observed["sampler_conserved"] and (
            observed["traces_kept"] + observed["traces_dropped"]
            == observed["completed"])
    return checks


_DES_MODULES = ("repro.core", "repro.datagen", "repro.engine",
                "repro.engine.queries")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("q12-sf1000", "simulated events",
             _DES_MODULES + ("repro.pricing",),
             _build_q12_sf1000, _q12_invariants, table6_bands),
    Workload("q6-burst-900", "simulated events", _DES_MODULES,
             _build_q6_burst, _q6_invariants),
    Workload("serving-mix", "offered queries", ("repro.serve",),
             _build_serving_mix, _serving_invariants),
    Workload("tenant-replay", "trace events", ("repro.shard",),
             _build_tenant_replay, _replay_invariants),
    Workload("tenant-replay-observed", "trace events",
             ("repro.shard", "repro.obs.scenario"),
             _build_tenant_replay_observed, _replay_invariants),
)}
