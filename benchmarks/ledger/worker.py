"""Measure one workload in this process; print one JSON record.

``run.py`` starts this file in a fresh interpreter per workload
(``PYTHONPATH=src``, ``PYTHONHASHSEED=0``, one thread) and reads the
record from the last line of its output. The argument is a JSON spec::

    {"workload": "q6-burst-900", "seed": 0, "seconds": 9, "trace": false,
     "started": <time.time() of the parent>, "tiny": false, "pins": null}

The untraced repeats come first and give every end-to-end metric; the
traced pass, when asked for, runs after them and gives the per-layer
metrics, so profiling never touches a number that is gated.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import inspect
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC_ROOT = HERE.parents[1] / "src"

#: Fewest build+body repeats in a run, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: Repeats on each side of a ratio (``shard.seq_ratio`` and friends).
RATIO_REPEATS = 3

_SPIN_ITERATIONS = 2_000_000
#: What the spin loop takes on the recording host in its fast phase.
#: Times are reported as if the host ran at this speed throughout.
SPIN_REFERENCE_S = 0.070


def spin_s() -> float:
    """Seconds for a fixed pure-Python loop: the host-speed yardstick.

    Timed before and after every body; the run's median calibrates its
    times to :data:`SPIN_REFERENCE_S` (see README, noise study, for why
    and for when it mis-corrects).
    """
    started = time.perf_counter()
    acc = 0
    for i in range(_SPIN_ITERATIONS):
        acc += i & 7
    return time.perf_counter() - started


class Spans:
    """Phase spans around the ledger's own calls into the program."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.records), "name": name,
                  "workload": self.workload,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


def duration(record: dict) -> float:
    return record["end"] - record["start"]


def best_of(body, repeats: int = RATIO_REPEATS) -> float:
    """Fastest of ``repeats`` timed calls of ``body``."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - started)
    return best


# -- checks --------------------------------------------------------------------

def load_pins(path, workload: str, tiny: bool) -> dict:
    """``{"units": nominal work units, "observed": seed-0 values}``."""
    pins = json.loads(Path(path or HERE / "pins.json").read_text())
    return pins["tiny" if tiny else "full"][workload]


def evaluate_checks(workload, outcomes: list, traced, pins,
                    published: bool) -> dict:
    """Check name → passed, over the untraced repeats and the traced pass.

    ``outcomes`` holds one observed dict per repeat; ``traced`` is the
    traced pass's observed dict, or ``False`` if there was none; ``pins``
    is the workload's pinned observed values, or ``None`` off seed 0;
    ``published`` adds the workload's checks against the paper (full
    size, seed 0). Repeats that disagree fail every check: no other
    verdict can be trusted once the runs are not the same run.
    """
    first = outcomes[0]
    checks = {"repeats_identical": all(o == first for o in outcomes)}
    if traced is not False:
        checks["traced_equals_untraced"] = traced == first
    sound = all(checks.values())
    checks.update(workload.invariants(first))
    if pins is not None:
        for key, pinned in pins.items():
            checks[f"pin.{key}"] = first.get(key) == pinned
    if published and workload.published is not None:
        checks.update(workload.published(first))
    if not sound:
        checks = dict.fromkeys(checks, False)
    return checks


# -- the ratios of the traced run ------------------------------------------------
# Each is measured on the workload it belongs to, best of RATIO_REPEATS a
# side, and takes (workload, seed, tiny, the workload's raw untraced wall).

def _shard_ratios(workload, seed: int, tiny: bool, wall_s: float) -> dict:
    """Sequential and forked kernels against the in-process partitioned one,
    on the smoke-size replay."""
    import repro.shard as shard
    from workloads import replay_config, resolve_replay_kernel

    partitioned = getattr(shard, "run_parallel_replay", None)
    if partitioned is None:
        return {}               # one kernel left: nothing to compare
    config = replay_config(seed, smoke=True, tiny=tiny)
    kernel = resolve_replay_kernel()
    in_process = best_of(lambda: kernel(config))
    ratios = {"shard.seq_ratio":
              best_of(lambda: shard.run_replay(config)) / in_process}
    cores = os.cpu_count() or 1
    if cores >= 2 and "workers" in inspect.signature(partitioned).parameters:
        forked = best_of(lambda: partitioned(config, workers=min(2, cores)))
        ratios["shard.pool_ratio"] = forked / in_process
    return ratios


def _obs_ratio(workload, seed: int, tiny: bool, wall_s: float) -> dict:
    """The observed replay against the same replay, same kernel, bare."""
    from workloads import replay_config, resolve_replay_kernel

    config = replay_config(seed, smoke=True, tiny=tiny)
    kernel = resolve_replay_kernel()
    return {"obs.overhead_ratio": wall_s / best_of(lambda: kernel(config))}


def _telemetry_ratio(workload, seed: int, tiny: bool, wall_s: float) -> dict:
    """The same body built and run inside ``repro.telemetry.recording()``."""
    from repro.telemetry import recording

    best = float("inf")
    for _ in range(RATIO_REPEATS):
        with recording():
            timing, _ = _repeat(workload, seed, tiny, Spans(workload.name),
                                "telemetry_on")
        best = min(best, timing["wall_s"])
    return {"telemetry.on_ratio": best / wall_s}


RATIOS = {"tenant-replay": _shard_ratios,
          "tenant-replay-observed": _obs_ratio,
          "q6-burst-900": _telemetry_ratio}


# -- one run ---------------------------------------------------------------------

def _repeat(workload, seed: int, tiny: bool, spans: Spans, name: str,
            profile=None):
    """One fresh build and its body; returns the timings and the outcome."""
    with spans.span(name):
        gc.collect()
        with spans.span("build") as build:
            body = workload.build(seed, tiny, spans.span)
        spins = [spin_s()]
        gc.collect()
        with spans.span("body") as timed:
            if profile is not None:
                profile.enable()
            try:
                outcome = body()
            finally:
                if profile is not None:
                    profile.disable()
        spins.append(spin_s())
    timing = {"build_s": duration(build), "wall_s": duration(timed),
              "spins_s": spins}
    return timing, outcome


def measure(spec: dict) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    seed, tiny = spec["seed"], spec["tiny"]
    spans = Spans(workload.name)
    record = {"workload": workload.name, "unit": workload.unit, "seed": seed,
              "spans": spans.records}
    with spans.span("import"):
        for module in workload.modules:
            importlib.import_module(module)
    startup_s = time.time() - spec["started"]

    pins = load_pins(spec["pins"], workload.name, tiny)
    repeats, outcomes = [], []
    traced = False
    try:
        while (len(repeats) < MIN_REPEATS
               or sum(r["wall_s"] for r in repeats) < spec["seconds"]):
            timing, outcome = _repeat(workload, seed, tiny, spans,
                                      f"repeat.{len(repeats)}")
            repeats.append(timing)
            outcomes.append(outcome)
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        summary = _summarise(repeats, pins["units"], startup_s, peak_rss_mb)
        record.update(summary)
        record["untraced_s"] = time.time() - spec["started"]
        if spec["trace"]:
            # Imported here: the fold pulls in repro.lint (54 ms), which
            # an untraced run must not pay for in its setup_s.
            from fold import fold

            profile = cProfile.Profile()
            timing, outcome = _repeat(workload, seed, tiny, spans, "traced",
                                      profile)
            traced = outcome.observed
            record["per_layer"] = _per_layer(
                workload, seed, tiny, outcomes[0].counters,
                fold(profile.getstats(), SRC_ROOT), timing["wall_s"],
                summary)
    except Exception:
        # The boundary of the measured program: whatever it raised, the
        # run is reported as failed, with the traceback on stderr.
        traceback.print_exc()
        record["checks"] = {"body_completed": False}
        return record

    record["checks"] = evaluate_checks(
        workload, [o.observed for o in outcomes], traced,
        pins["observed"] if seed == 0 else None,
        published=seed == 0 and not tiny)
    if seed == 0:
        record["checks"]["pin.units"] = outcomes[0].units == pins["units"]
    record["observed"] = outcomes[0].observed
    return record


def _summarise(repeats: list, units: int, startup_s: float,
               peak_rss_mb: float) -> dict:
    """End-to-end metrics and diagnostics of the untraced repeats.

    Times are the fastest repeat's, scaled by ``host_factor`` to the
    reference host speed. ``units`` is the workload's nominal work-unit
    count (what it does at seed 0): a fixed numerator keeps
    ``units_per_s`` comparable across seeds, whose own counts differ by
    a percent or so.
    """
    from repro.analysis import coefficient_of_variation

    walls = [r["wall_s"] for r in repeats]
    spin = statistics.median(s for r in repeats for s in r["spins_s"])
    host_factor = SPIN_REFERENCE_S / spin
    wall_raw_s = min(walls)
    setup_raw_s = startup_s + min(r["build_s"] for r in repeats)
    return {
        "k": len(repeats),
        "repeats": repeats,
        "end_to_end": {
            "wall_s": wall_raw_s * host_factor,
            "units_per_s": units / (wall_raw_s * host_factor),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_raw_s * host_factor,
        },
        "diagnostics": {
            "units": units,
            "host_factor": host_factor,
            "spin_s": spin,
            "wall_raw_s": wall_raw_s,
            "setup_raw_s": setup_raw_s,
            "wall_med_s": statistics.median(walls),
            "wall_max_s": max(walls),
            "wall_cov_pct": 100.0 * coefficient_of_variation(walls),
        },
    }


def _per_layer(workload, seed: int, tiny: bool, counters: dict, layers: dict,
               traced_wall_s: float, summary: dict) -> dict:
    """Every per-layer metric this workload has a value for.

    Per-event costs use the calibrated ``wall_s`` of the untraced
    repeats (``summary``); ratios compare raw times taken minutes apart
    at most.
    """
    wall_s = summary["end_to_end"]["wall_s"]
    wall_raw_s = summary["diagnostics"]["wall_raw_s"]
    metrics = {}
    for layer, totals in layers.items():
        metrics[f"{layer}.self_s"] = totals["self_s"]
        metrics[f"{layer}.calls"] = totals["calls"]
    metrics.update(counters)
    if "sim.events" in counters:
        metrics["sim.us_per_event"] = 1e6 * wall_s / counters["sim.events"]
        metrics["network.calls_per_event"] = (
            layers["network"]["calls"] / counters["sim.events"])
    if "shard.events" in counters:
        metrics["shard.us_per_event"] = (
            1e6 * wall_s / counters["shard.events"])
    if workload.name in RATIOS:
        metrics.update(
            RATIOS[workload.name](workload, seed, tiny, wall_raw_s))
    metrics["ledger.trace_overhead_ratio"] = traced_wall_s / wall_raw_s
    metrics["ledger.spin_s"] = summary["diagnostics"]["spin_s"]
    return metrics


def main(argv: list) -> int:
    print(json.dumps(measure(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
