"""Micro-benchmark: telemetry overhead, disabled and enabled.

The telemetry contract is that the *default* (disabled) path costs one
predicate check per instrumentation site — an uninstrumented run should
be indistinguishable from a build without telemetry — and that enabled
recording stays within a small constant factor. This benchmark times
TPC-H Q6 end-to-end both ways and bounds the ratio, and measures the
raw cost of the disabled-path guard itself.
"""

import time

from repro.core.context import CloudSim
from repro.obs.scenario import run_obs_replay
from repro.shard.replay import ReplayConfig, run_replay
from repro.telemetry import get_recorder, recording
from repro.workloads.suite import SuiteSetup, build_plan, setup_engine

ROUNDS = 3
#: Enabled recording must stay within this factor of the disabled run.
MAX_ENABLED_RATIO = 3.0
#: Regression bound for the attached obs plane (tail sampling + SLO
#: evaluation + flight recorder). The plane itself costs ~5% — the
#: completion-interest pre-filter keeps the dropped-trace path to three
#: inline scalar checks — but an attached observer also takes the
#: replay off its closed-form fast lane: every completion has to exist
#: as a request the filter can look at, so the observed run makes the
#: gateway calls the bare run inlines. The ratio *rose* when routing
#: went to arrays, with both sides faster: the bare run spent most of
#: its time routing and lost most of it (0.80 -> 0.50 s CPU here), the
#: observed run shares the router but not the fast lane (1.60 -> 1.20
#: s). Seven recordings of this test read 2.28-2.49; the bound is that
#: plus the ~10% a shared container jitters. Getting back to 1.10 (a
#: fast lane that can tell which completions the observer would keep)
#: belongs to ROADMAP item 5.
MAX_OBS_RATIO = 2.7
OBS_ROUNDS = 4


def _run_q6(record: bool) -> float:
    started = time.perf_counter()
    if record:
        with recording():
            _execute()
    else:
        _execute()
    return time.perf_counter() - started


def _execute() -> None:
    sim = CloudSim(seed=11)
    setup = SuiteSetup(queries=("tpch-q6",), lineitem_partitions=3,
                       orders_partitions=2, rows_per_partition=96)
    engine = setup_engine(sim, setup)
    sim.run(engine.run_query(build_plan("tpch-q6")))


def test_telemetry_overhead(benchmark):
    def run_experiment():
        disabled = sorted(_run_q6(record=False) for _ in range(ROUNDS))
        enabled = sorted(_run_q6(record=True) for _ in range(ROUNDS))
        return disabled[ROUNDS // 2], enabled[ROUNDS // 2]

    disabled_s, enabled_s = benchmark.pedantic(run_experiment, rounds=1,
                                               iterations=1)
    ratio = enabled_s / disabled_s
    assert ratio < MAX_ENABLED_RATIO, (
        f"enabled telemetry costs {ratio:.2f}x the disabled run "
        f"({enabled_s:.4f} s vs {disabled_s:.4f} s, median of {ROUNDS}; "
        f"bound {MAX_ENABLED_RATIO}x)")


def test_obs_plane_overhead(benchmark):
    """The attached obs plane stays close to the bare replay's runtime.

    Same sharded shard-failure replay both ways — tail sampling, SLO
    windows, burn-rate evaluation, and flight-recorder notes all active
    in the observed run. Rounds interleave bare and observed runs and
    the asserted statistic is the *minimum paired ratio*: pairing
    cancels slow drift (thermal, container co-tenancy) that min-of-each
    would attribute to whichever side ran later, and the best-case pair
    is the closest this box gets to measuring the plane alone.
    """
    config = ReplayConfig(seed=11).smoke()

    def run_experiment():
        pairs = []
        for _ in range(OBS_ROUNDS):
            started = time.process_time()
            run_replay(config)
            bare = time.process_time() - started
            started = time.process_time()
            run_obs_replay(config)
            pairs.append((bare, time.process_time() - started))
        return min(pairs, key=lambda pair: pair[1] / pair[0])

    bare_s, observed_s = benchmark.pedantic(run_experiment, rounds=1,
                                            iterations=1)
    ratio = observed_s / bare_s
    assert ratio < MAX_OBS_RATIO, (
        f"obs plane costs {ratio:.3f}x the bare replay "
        f"({observed_s:.4f} s vs {bare_s:.4f} s CPU, best pair of "
        f"{OBS_ROUNDS}; bound {MAX_OBS_RATIO}x)")


def test_disabled_guard_is_cheap(benchmark):
    """The per-site cost when telemetry is off: one attribute check."""
    recorder = get_recorder()
    assert not recorder.enabled

    def guard_loop():
        telemetry = recorder if recorder.enabled else None
        hits = 0
        for _ in range(100_000):
            if telemetry is not None:
                hits += 1
        return hits

    assert benchmark(guard_loop) == 0
