"""Command-line interface for the evaluation framework.

Mirrors the paper's experiment flow (Figure 3): configurations go in,
JSON results come out, and the plotter renders what it can. Usage::

    python -m repro list                      # predefined experiments
    python -m repro run fig5-function-burst   # run one by name
    python -m repro run path/to/config.json   # or from a JSON file
    python -m repro suite network             # run a whole suite
    python -m repro serve --policy fair       # multi-tenant serving run
    python -m repro chaos --plan demo-outage  # fault-injected suite run
    python -m repro trace --query tpch-q12    # Perfetto trace of one query
    python -m repro futures --workload sweep  # futures/map-reduce workload
    python -m repro shard --smoke             # sharded-serving replay gate
    python -m repro metrics --query tpch-q12  # telemetry dashboard
    python -m repro lint --strict             # determinism/architecture gate
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.core import Driver, ExperimentConfig, ascii_timeseries
from repro.core.suites import network_suite, startup_suite, storage_suite
from repro.workloads.suite import full_evaluation, query_suite

SUITES = {
    "network": network_suite,
    "storage": storage_suite,
    "query": query_suite,
    "startup": startup_suite,
    "full": full_evaluation,
}


def _predefined() -> dict[str, ExperimentConfig]:
    return {config.name: config for config in full_evaluation()}


def _run_serve(args) -> int:
    """Run a multi-tenant serving mix and print the per-tenant report."""
    from repro.serve import default_tenant_mix, run_serving_workload
    from repro.serve.scheduler import POLICIES

    policies = [args.policy]
    if args.compare_fifo and args.policy != "fifo":
        policies.insert(0, "fifo")
    assert all(policy in POLICIES for policy in policies)
    try:
        mix = default_tenant_mix(rate_scale=args.rate_scale)
        warm_targets = ({"skyrise-worker": args.warm_pool,
                         "skyrise-coordinator": 1}
                        if args.warm_pool else None)
        for policy in policies:
            outcome = run_serving_workload(
                mix, policy=policy, window_s=args.window, seed=args.seed,
                max_concurrent_queries=args.max_queries,
                warm_targets=warm_targets)
            print(outcome.format_report())
            print()
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_chaos(args) -> int:
    """Run a fault-injected chaos suite and print the resilience report."""
    from repro.chaos.runner import run_chaos_suite

    try:
        if args.smoke:
            # CI gate: the smoke plan must recover every query, and the
            # report must be byte-deterministic across two runs.
            first = run_chaos_suite("smoke", queries=("tpch-q6",),
                                    repeats=2, seed=args.seed,
                                    baseline=False)
            second = run_chaos_suite("smoke", queries=("tpch-q6",),
                                     repeats=2, seed=args.seed,
                                     baseline=False)
            print(first.format())
            if first.to_json() != second.to_json():
                print("repro chaos --smoke: FAIL: report is not "
                      "deterministic across identical runs",
                      file=sys.stderr)
                return 1
            if first.unrecovered:
                print(f"repro chaos --smoke: FAIL: {first.unrecovered} "
                      f"unrecovered quer(ies)", file=sys.stderr)
                return 1
            print("smoke OK: deterministic report, all queries recovered")
            return 0
        queries = tuple(q for q in args.queries.split(",") if q)
        report = run_chaos_suite(args.plan, queries=queries,
                                 repeats=args.repeats, seed=args.seed)
        print(report.to_json() if args.json else report.format())
    except (KeyError, ValueError) as exc:
        print(f"repro chaos: error: {exc}", file=sys.stderr)
        return 2
    return 0


def _record_query(query: str, seed: int):
    """Run one TPC-H query with telemetry recording on; return result+recorder."""
    from repro.core.context import CloudSim
    from repro.telemetry import recording
    from repro.workloads.suite import SuiteSetup, build_plan, setup_engine

    with recording() as recorder:
        sim = CloudSim(seed=seed)
        setup = SuiteSetup(queries=(query,), lineitem_partitions=3,
                           orders_partitions=2, clickstreams_partitions=2,
                           rows_per_partition=96)
        engine = setup_engine(sim, setup)
        result = sim.run(engine.run_query(build_plan(query)))
    return result, recorder


def _run_trace(args) -> int:
    """Trace one query and export a Perfetto-loadable Chrome trace."""
    import json

    from repro.telemetry import (
        canonical_json,
        chrome_trace,
        metrics_snapshot,
        validate_chrome_trace,
    )

    query = "tpch-q6" if args.smoke else args.query
    trace_filter = getattr(args, "trace", None)
    try:
        result, recorder = _record_query(query, args.seed)
        if trace_filter is not None:
            known = sorted({span.trace_id for span in recorder.spans})
            if trace_filter not in known:
                raise ValueError(
                    f"trace id {trace_filter!r} not in this run; "
                    f"recorded: {known}")
        trace = chrome_trace(
            recorder,
            trace_ids=None if trace_filter is None else [trace_filter])
        snapshot = metrics_snapshot(recorder)
        trace_text = canonical_json(trace)
        snapshot_text = canonical_json(snapshot)
        # Round-trip both artifacts through the parser before (and
        # instead of trusting) any consumer: the smoke gate is exactly
        # "both artifacts parse and the trace schema holds".
        counts = validate_chrome_trace(json.loads(trace_text))
        parsed_snapshot = json.loads(snapshot_text)
    except (KeyError, ValueError) as exc:
        print(f"repro trace: error: {exc}", file=sys.stderr)
        return 1 if args.smoke else 2
    if args.smoke:
        if not parsed_snapshot.get("counters"):
            print("repro trace --smoke: FAIL: metrics snapshot has no "
                  "counters", file=sys.stderr)
            return 1
        if not counts.get("X"):
            print("repro trace --smoke: FAIL: trace has no complete "
                  "spans", file=sys.stderr)
            return 1
        print(f"smoke OK: {query} runtime {result.runtime:.3f}s; "
              f"trace events {counts}; metrics snapshot "
              f"{len(parsed_snapshot['counters'])} counters / "
              f"{len(parsed_snapshot['series'])} series")
        return 0
    output_dir = Path(args.output)
    output_dir.mkdir(parents=True, exist_ok=True)
    stem = query if trace_filter is None \
        else f"{query}-{trace_filter.replace(' ', '_').replace('/', '_')}"
    trace_path = output_dir / f"{stem}-trace.json"
    metrics_path = output_dir / f"{stem}-metrics.json"
    trace_path.write_text(trace_text + "\n")
    metrics_path.write_text(snapshot_text + "\n")
    print(f"{query}: runtime {result.runtime:.3f}s, "
          f"cost {result.cost_cents:.4f}¢")
    print(f"  {counts['X']} spans, {counts.get('i', 0)} instants, "
          f"{counts.get('C', 0)} counter samples")
    print(f"  trace   -> {trace_path}  (load in ui.perfetto.dev or "
          f"chrome://tracing)")
    print(f"  metrics -> {metrics_path}")
    return 0


def _run_metrics(args) -> int:
    """Run one query with telemetry on and print the metric dashboard."""
    from repro.telemetry import (
        canonical_json,
        metrics_snapshot,
        render_dashboard,
    )

    try:
        result, recorder = _record_query(args.query, args.seed)
    except (KeyError, ValueError) as exc:
        print(f"repro metrics: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(canonical_json(metrics_snapshot(recorder)))
    else:
        print(render_dashboard(recorder))
        print(f"\nquery {args.query}: runtime {result.runtime:.3f}s, "
              f"cost {result.cost_cents:.4f}¢")
    return 0


def _run_obs(args) -> int:
    """Run the observability plane: observed replay, smoke gate, profiler."""
    from repro.telemetry.export import canonical_json

    try:
        if args.profile is not None:
            from repro.obs import profile_recorder
            result, recorder = _record_query(args.profile, args.seed)
            profile = profile_recorder(recorder)
            print(canonical_json(profile))
            if not args.json:
                print(f"# {args.profile}: {profile['stage_count']} stages, "
                      f"total ${profile['cost']['total_usd']:.6f} "
                      f"(runtime {result.runtime:.3f}s)", file=sys.stderr)
            return 0

        from repro.obs.scenario import obs_smoke, run_obs_replay
        from repro.shard.replay import ReplayConfig

        config = ReplayConfig(seed=args.seed).smoke()
        config = replace(config, tenants=args.tenants, events=args.events)
        if args.smoke:
            out = obs_smoke(config)
            for name in sorted(out["checks"]):
                print(f"  {name:<22} ok")
            print(f"smoke OK: {out['alerts_fired']} alerts, "
                  f"{out['incidents']} incident bundles, "
                  f"{out['sampling']['kept']}/"
                  f"{out['sampling']['completed']} traces kept, "
                  f"digest {out['digest'][:16]}")
            return 0

        outcome = run_obs_replay(config)
        if args.bundle_dir is not None:
            bundle_dir = Path(args.bundle_dir)
            bundle_dir.mkdir(parents=True, exist_ok=True)
            for bundle in outcome.incidents:
                path = bundle_dir / f"incident-{bundle['seq']:03d}.json"
                path.write_text(canonical_json(bundle) + "\n")
                print(f"  bundle -> {path}", file=sys.stderr)
        if args.json:
            print(outcome.to_json())
            return 0
        sampling = outcome.sampling
        print(f"observed replay: seed={config.seed} "
              f"events={config.events} tenants={config.tenants} "
              f"plan={config.fault_plan or '-'}")
        print(f"  alerts fired      {outcome.alerts_fired}")
        print(f"  incident bundles  {len(outcome.incidents)}")
        print(f"  traces kept       {sampling['kept']}/"
              f"{sampling['completed']} "
              f"(slow={sampling['kept_by_reason']['slow']}, "
              f"fault={sampling['kept_by_reason']['fault']}, "
              f"baseline={sampling['kept_by_reason']['baseline']}; "
              f"conserved={sampling['conserved']})")
        for scope, entry in sorted(outcome.slo["scopes"].items()):
            firing = ",".join(entry["firing"]) or "-"
            print(f"  slo {scope:<16} attainment="
                  f"{entry['attainment']:.4f}  "
                  f"budget={entry['budget_consumed']:.2f}x  "
                  f"firing={firing}")
    except (AssertionError, KeyError, ValueError) as exc:
        print(f"repro obs: error: {exc}", file=sys.stderr)
        return 1 if args.smoke else 2
    return 0


def _run_futures(args) -> int:
    """Run a futures workload (or the CI smoke gate) and print its outcome."""
    from repro.chaos.plan import get_plan
    from repro.futures.workloads import run_sweep, run_wordcount
    from repro.telemetry.export import canonical_json

    try:
        plan = get_plan(args.plan) if args.plan else None
        if args.smoke:
            # CI gate: the acceptance-criterion wordcount (>= 64 chunks)
            # must be byte-deterministic across two runs, with the
            # per-future cost sum matching the pricing-catalog total.
            first = run_wordcount(seed=args.seed, plan=plan)
            second = run_wordcount(seed=args.seed, plan=plan)
            if first != second:
                print("repro futures --smoke: FAIL: outcome is not "
                      "deterministic across identical runs",
                      file=sys.stderr)
                return 1
            if first["chunks"] < 64:
                print(f"repro futures --smoke: FAIL: only "
                      f"{first['chunks']} chunks (need >= 64)",
                      file=sys.stderr)
                return 1
            if first["cost_check"] != "ok":
                print("repro futures --smoke: FAIL: per-future cost sum "
                      "does not match the pricing-catalog total",
                      file=sys.stderr)
                return 1
            if first["states"]["error"] or first["states"]["running"] \
                    or first["states"]["pending"]:
                print(f"repro futures --smoke: FAIL: open or failed "
                      f"calls: {first['states']}", file=sys.stderr)
                return 1
            print(f"smoke OK: wordcount over {first['chunks']} chunks, "
                  f"{first['records']} records, digest {first['digest']}, "
                  f"cost check {first['cost_check']}")
            return 0
        if args.workload == "wordcount":
            outcome = run_wordcount(seed=args.seed, objects=args.objects,
                                    chunks_per_object=args.chunks_per_object,
                                    plan=plan, speculate=args.speculate)
        else:
            outcome = run_sweep(seed=args.seed, points=args.points,
                                plan=plan, speculate=args.speculate)
    except (KeyError, ValueError) as exc:
        print(f"repro futures: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(canonical_json(outcome))
    else:
        print(f"{outcome['workload']}: runtime {outcome['runtime_s']:.3f}s, "
              f"total cost ${outcome['total_cost_usd']:.6f} "
              f"(check: {outcome['cost_check']})")
        print(f"  states {outcome['states']}, retries {outcome['retries']}, "
              f"speculations {outcome['speculations']}")
        if outcome["faults"]:
            print(f"  faults {outcome['faults']}")
        print(f"  digest {outcome['digest']}")
    return 0


def _run_shard(args) -> int:
    """Run the sharded-serving replay (or the CI smoke gate)."""
    from repro.shard import ReplayConfig, run_replay
    from repro.shard.replay import run_replay_reference
    from repro.telemetry import canonical_json

    try:
        if args.smoke:
            # CI gate: the >=100k-tenant smoke replay (with one injected
            # shard failure) through the kernel and through its
            # event-at-a-time oracle must be byte-identical, must never
            # walk a tenant-sized structure on the hot path, and must
            # account for every admitted query.
            config = ReplayConfig(seed=args.seed).smoke()
            first = run_replay(config)
            second = run_replay_reference(config)
            report = first.report
            if first.digest() != second.digest():
                print("repro shard --smoke: FAIL: the replay kernel "
                      "diverged from its reference", file=sys.stderr)
                return 1
            if first.distinct_tenants < 100_000:
                print(f"repro shard --smoke: FAIL: only "
                      f"{first.distinct_tenants} distinct tenants "
                      f"(need >= 100000)", file=sys.stderr)
                return 1
            if first.full_scans or second.full_scans:
                print(f"repro shard --smoke: FAIL: {first.full_scans} "
                      f"(kernel) / {second.full_scans} (reference) full "
                      f"scans of tenant-keyed state on the hot path",
                      file=sys.stderr)
                return 1
            if not report["balanced"]:
                print("repro shard --smoke: FAIL: fleet roll-up does not "
                      "reconcile (offered != completed + shed + failed + "
                      "pending)", file=sys.stderr)
                return 1
            if not first.failures_injected:
                print("repro shard --smoke: FAIL: no shard failure was "
                      "injected", file=sys.stderr)
                return 1
            if not first.recovered:
                print("repro shard --smoke: FAIL: shard failures recovered "
                      "no admitted queries", file=sys.stderr)
                return 1
            print(f"smoke OK: {first.distinct_tenants} tenants / "
                  f"{first.events} events over {first.shards_final} final "
                  f"shards; {first.failures_injected} failure(s), "
                  f"{first.recovered} recovered, full_scans=0, "
                  f"digest {first.digest()[:16]} (kernel==reference)")
            return 0
        config = ReplayConfig(tenants=args.tenants, events=args.events,
                              seed=args.seed, fail_at=(150.0,),
                              fault_plan="shard-failure")
        result = run_replay(config)
    except (KeyError, ValueError) as exc:
        print(f"repro shard: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(canonical_json(result.to_dict()))
        return 0
    report = result.report
    print(f"sharded replay: {result.distinct_tenants} tenants, "
          f"{result.events} events, {result.shards_final} final shards "
          f"({len(result.rebalances)} rebalances, "
          f"{result.failures_injected} failures)")
    print(f"  offered {report['offered']}, completed {report['completed']}, "
          f"shed {report['shed']}, recovered {report['recovered']}, "
          f"balanced {report['balanced']}")
    print(f"  p50 {report['latency_p50']:.3f}s, "
          f"p99 {report['latency_p99']:.3f}s, "
          f"SLO {report['slo_attainment']:.3%}, "
          f"cost ${report['cost_usd']:.4f}")
    print(f"  stale retries {result.stale_retries}, "
          f"migrated {result.migrated}, full scans {result.full_scans}")
    print(f"  digest {result.digest()[:16]}")
    return 0


def _run_lint(args) -> int:
    """Run the determinism/architecture static-analysis pass."""
    from repro.lint.cli import run_lint

    return run_lint(args)


def _run_configs(configs, output_dir: Path, plot: bool) -> int:
    driver = Driver()
    for config in configs:
        print(f"running {config.name} ({config.kind}) ...", flush=True)
        result = driver.run(config)
        path = result.save(output_dir / f"{config.name}.json")
        for key, value in result.metrics.items():
            print(f"  {key} = {value:.6g}")
        print(f"  cost = ${result.cost_usd:.4f}")
        print(f"  saved {path}")
        if plot:
            for label, points in result.series.items():
                print(ascii_timeseries(points, title=f"{config.name}: {label}",
                                       height=8))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Skyrise evaluation framework")
    parser.add_argument("--output", default="results",
                        help="directory for result JSON files")
    parser.add_argument("--plot", action="store_true",
                        help="render result series as ASCII charts")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list predefined experiments")
    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("experiment",
                     help="predefined name or path to a config JSON")
    suite = commands.add_parser("suite", help="run a predefined suite")
    suite.add_argument("suite", choices=sorted(SUITES))
    serve = commands.add_parser(
        "serve", help="serve a multi-tenant Poisson query mix")
    serve.add_argument("--policy", default="fair",
                       choices=("fifo", "priority", "fair"),
                       help="scheduling policy (default: fair)")
    serve.add_argument("--window", type=float, default=600.0,
                       help="serving window in simulated seconds")
    serve.add_argument("--seed", type=int, default=0,
                       help="RNG seed (fixed seed -> identical metrics)")
    serve.add_argument("--rate-scale", type=float, default=1.0,
                       help="multiply every tenant's arrival rate")
    serve.add_argument("--max-queries", type=int, default=None,
                       help="override the concurrency governor's query cap")
    serve.add_argument("--warm-pool", type=int, default=0, metavar="N",
                       help="keep N worker sandboxes warm via pings")
    serve.add_argument("--compare-fifo", action="store_true",
                       help="also run FIFO on the same trace for contrast")
    chaos = commands.add_parser(
        "chaos", help="run a query suite under fault injection")
    chaos.add_argument("--plan", default="demo-outage",
                       help="fault plan name (see repro.chaos.FAULT_PLANS)")
    chaos.add_argument("--queries", default="tpch-q6,tpch-q1",
                       help="comma-separated query list")
    chaos.add_argument("--repeats", type=int, default=2,
                       help="runs per query")
    chaos.add_argument("--seed", type=int, default=0,
                       help="RNG seed (fixed seed -> identical report)")
    chaos.add_argument("--json", action="store_true",
                       help="print the canonical JSON report")
    chaos.add_argument("--smoke", action="store_true",
                       help="CI gate: smoke plan, fail on any unrecovered "
                            "query or nondeterministic report")
    trace = commands.add_parser(
        "trace", help="run one query with telemetry and export its trace")
    trace.add_argument("--query", default="tpch-q12",
                       help="TPC-H query to trace (default: tpch-q12)")
    trace.add_argument("--seed", type=int, default=0,
                       help="RNG seed (fixed seed -> identical trace)")
    trace.add_argument("--smoke", action="store_true",
                       help="CI gate: trace tpch-q6, validate that the "
                            "Chrome trace and metrics snapshot parse")
    trace.add_argument("--trace", default=None, metavar="TRACE_ID",
                       help="re-export only this trace id (e.g. a trace "
                            "named in an incident bundle)")
    futures = commands.add_parser(
        "futures", help="run a futures/map-reduce workload scenario")
    futures.add_argument("--workload", default="wordcount",
                         choices=("wordcount", "sweep"),
                         help="scenario to run (default: wordcount)")
    futures.add_argument("--seed", type=int, default=7,
                         help="RNG seed (fixed seed -> identical outcome)")
    futures.add_argument("--objects", type=int, default=16,
                         help="corpus objects for wordcount")
    futures.add_argument("--chunks-per-object", type=int, default=4,
                         help="byte-range chunks per corpus object")
    futures.add_argument("--points", type=int, default=24,
                         help="grid points for the parameter sweep")
    futures.add_argument("--plan", default=None,
                         help="fault plan to inject (e.g. futures-chaos)")
    futures.add_argument("--speculate", action="store_true",
                         help="enable speculative re-invocation of "
                              "stragglers")
    futures.add_argument("--json", action="store_true",
                         help="print the canonical JSON outcome")
    futures.add_argument("--smoke", action="store_true",
                         help="CI gate: 64-chunk wordcount, fail on "
                              "nondeterminism or cost mismatch")
    shard = commands.add_parser(
        "shard", help="replay a Zipf trace over the sharded serving fabric")
    shard.add_argument("--tenants", type=int, default=1_000_000,
                       help="distinct tenant population of the trace")
    shard.add_argument("--events", type=int, default=1_500_000,
                       help="trace length in arrivals")
    shard.add_argument("--seed", type=int, default=7,
                       help="RNG seed (fixed seed -> identical replay)")
    shard.add_argument("--json", action="store_true",
                       help="print the canonical JSON replay outcome")
    shard.add_argument("--smoke", action="store_true",
                       help="CI gate: >=100k-tenant replay with a shard "
                            "failure; fail when the kernel and its "
                            "reference diverge, on hot-path full scans, "
                            "or on unreconciled queries")
    metrics = commands.add_parser(
        "metrics", help="run one query with telemetry and show a dashboard")
    metrics.add_argument("--query", default="tpch-q12",
                         help="TPC-H query to profile (default: tpch-q12)")
    metrics.add_argument("--seed", type=int, default=0,
                         help="RNG seed (fixed seed -> identical metrics)")
    metrics.add_argument("--json", action="store_true",
                         help="print the canonical JSON metrics snapshot")
    obs = commands.add_parser(
        "obs", help="observability plane: SLO burn-rate alerts, tail "
                    "sampling, incident bundles, stage profiler")
    obs.add_argument("--tenants", type=int, default=120_000,
                     help="distinct tenant population of the replay")
    obs.add_argument("--events", type=int, default=180_000,
                     help="replay length in arrivals")
    obs.add_argument("--seed", type=int, default=7,
                     help="RNG seed (fixed seed -> identical bundles)")
    obs.add_argument("--profile", default=None, metavar="QUERY",
                     help="instead of a replay, profile one TPC-H query's "
                          "span tree into the per-stage cost feed")
    obs.add_argument("--bundle-dir", default=None, metavar="DIR",
                     help="write each incident bundle as a canonical JSON "
                          "file under DIR")
    obs.add_argument("--json", action="store_true",
                     help="print the canonical JSON observed outcome")
    obs.add_argument("--smoke", action="store_true",
                     help="CI gate: shard-failure replay; fail unless the "
                          "burn-rate alert fires, bundles are "
                          "byte-deterministic, and sampled trace counts "
                          "conserve")
    lint = commands.add_parser(
        "lint", help="static analysis: determinism bans + layer contract")
    from repro.lint.cli import add_lint_arguments
    add_lint_arguments(lint)
    args = parser.parse_args(argv)

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "serve":
        return _run_serve(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "futures":
        return _run_futures(args)
    if args.command == "shard":
        return _run_shard(args)
    if args.command == "metrics":
        return _run_metrics(args)
    if args.command == "obs":
        return _run_obs(args)

    output_dir = Path(args.output)
    if args.command == "list":
        for name, config in _predefined().items():
            print(f"{name:<32} {config.kind}")
        return 0
    if args.command == "run":
        predefined = _predefined()
        if args.experiment in predefined:
            config = predefined[args.experiment]
        elif Path(args.experiment).exists():
            config = ExperimentConfig.from_json(
                Path(args.experiment).read_text())
        else:
            print(f"unknown experiment {args.experiment!r}; "
                  f"try 'python -m repro list'", file=sys.stderr)
            return 2
        return _run_configs([config], output_dir, args.plot)
    return _run_configs(SUITES[args.suite](), output_dir, args.plot)
