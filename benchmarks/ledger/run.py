"""The host-cost ledger: one command, five workloads, every metric by name.

    python benchmarks/ledger/run.py [--workload NAME] [--seed N]
                                    [--seconds S] [--trace [0|1]] [--json OUT]

Each workload runs in a fresh interpreter (``worker.py``). With
``--workload`` the last line of output is the result object the
benchmark driver reads (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics without ``--trace``, the per-layer
metrics with it. Exit code is non-zero when any check failed. See
``README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = tuple(WORKLOADS)

#: Run budget on the recording host: one workload (set-up and all its
#: repeats), and all five together. The driver makes 114 runs in 3420 s.
WORKLOAD_BUDGET_S = 30.0
TOTAL_BUDGET_S = 150.0


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_worker(name: str, seed: int, seconds: float, trace: bool,
               tiny: bool = False, pins: str | None = None) -> dict:
    """Measure one workload in a fresh interpreter; return its record.

    ``tiny`` (self-test sizes) and ``pins`` (another pins file) serve
    ``test_ledger.py``; the command line sets neither.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spec = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "tiny": tiny, "pins": pins,
            "started": time.time()}
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, text=True, check=False)
    elapsed_s = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"ledger worker for {name!r} exited with {done.returncode}")
    record = json.loads(lines[-1])
    record["elapsed_s"] = elapsed_s
    return record


def check_counts(record: dict) -> tuple[int, int]:
    checks = record["checks"]
    return len(checks), sum(1 for passed in checks.values() if not passed)


def driver_metrics(record: dict, benchmark: dict, kind: str) -> dict:
    """The declared metrics of one ``kind`` (``end_to_end`` or
    ``per_layer``), with their units.

    A per-layer metric that does not apply to the workload (``obs.*`` on
    a DES query, a ratio on a one-core host) reads 0 here and ``n/a`` in
    the printed table.
    """
    return {metric["name"]: {"value": record[kind].get(metric["name"], 0),
                             "unit": metric["unit"]}
            for metric in benchmark[kind]}


def format_record(record: dict, benchmark: dict) -> str:
    attempted, failed = check_counts(record)
    lines = [f"== {record['workload']} (seed {record['seed']}) =="]
    if "end_to_end" in record:
        units = {m["name"]: m["unit"]
                 for m in benchmark["end_to_end"] + benchmark["per_layer"]}
        for name, value in record["end_to_end"].items():
            lines.append(f"  {name:<30} {value:>16.6g} {units[name]}")
        diagnostics = record["diagnostics"]
        lines.append(
            f"  k={record['k']} repeats of {diagnostics['units']} "
            f"{record['unit']}; raw wall best "
            f"{diagnostics['wall_raw_s']:.4f} s, "
            f"med {diagnostics['wall_med_s']:.4f} s, "
            f"max {diagnostics['wall_max_s']:.4f} s, "
            f"CoV {diagnostics['wall_cov_pct']:.1f}%; raw set-up "
            f"{diagnostics['setup_raw_s']:.4f} s; "
            f"spin {diagnostics['spin_s']:.4f} s, host factor "
            f"{diagnostics['host_factor']:.3f} (diagnostics, not gated)")
        if "per_layer" in record:
            lines.append("  -- per layer (traced pass) --")
            for metric in benchmark["per_layer"]:
                name = metric["name"]
                value = record["per_layer"].get(name)
                shown = ("n/a" if value is None else str(value)
                         if isinstance(value, int) else f"{value:.6g}")
                lines.append(f"  {name:<30} {shown:>16} {metric['unit']}")
            if "engine.paper_err_pct" not in record["per_layer"]:
                lines.append("  no published reference for this workload: "
                             "model unvalidated here, no error figure")
    lines.append(f"  check_fail_share               "
                 f"{failed / attempted:>16.6g} ratio "
                 f"({attempted - failed}/{attempted} checks passed)")
    for name, passed in record["checks"].items():
        if not passed:
            lines.append(f"  FAILED check: {name}")
    lines.append(f"  elapsed {record['elapsed_s']:.1f} s, of which set-up "
                 f"and repeats {record.get('untraced_s', 0.0):.1f} s "
                 f"(budget {WORKLOAD_BUDGET_S:.0f} s)")
    return "\n".join(lines)


def stamp(records: list) -> dict:
    """Where, on what and in what host phase a recording was made."""
    import numpy            # only a recording needs it here

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    spins = [record["diagnostics"]["spin_s"] for record in records
             if "diagnostics" in record]
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "ledger.spin_s": statistics.median(spins) if spins else None,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def append_run(path: Path, run: dict) -> None:
    """Add one run to a set file (``{"runs": [...]}``, a run a line)."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(run)
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in runs)
    path.write_text('{"runs": [\n' + lines + "\n]}\n")


def over_budget(records: list) -> list[str]:
    """Budget breaches of an all-workload recording, as messages."""
    spent = {r["workload"]: r.get("untraced_s", r["elapsed_s"])
             for r in records}
    breaches = [f"{name}: {seconds:.1f} s exceeds the "
                f"{WORKLOAD_BUDGET_S:.0f} s run budget"
                for name, seconds in spent.items()
                if seconds > WORKLOAD_BUDGET_S]
    total = sum(spent.values())
    if total > TOTAL_BUDGET_S:
        breaches.append(f"all workloads: {total:.1f} s exceeds the "
                        f"{TOTAL_BUDGET_S:.0f} s budget")
    return breaches


def exit_code(records: list, breaches: list) -> int:
    failed = sum(check_counts(record)[1] for record in records)
    return 1 if failed or breaches else 0


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="added to each workload's canonical seed; "
                             "pins are checked at 0, invariants always")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                             "BENCHMARK.json run_seconds); at least "
                             "three repeats run whatever this says")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="add the traced pass and the per-layer metrics")
    parser.add_argument("--json", type=Path, metavar="OUT",
                        help="append this run to a set file for compare.py")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    seconds = (args.seconds if args.seconds is not None
               else benchmark["run_seconds"])
    trace = bool(args.trace)
    names = (args.workload,) if args.workload else WORKLOAD_NAMES

    records = []
    for name in names:
        record = run_worker(name, args.seed, seconds, trace)
        records.append(record)
        print(format_record(record, benchmark), flush=True)
    # The budget is a property of a whole recording; a single-workload
    # run (the driver's) only reports its elapsed time above.
    breaches = over_budget(records) if args.workload is None else []
    for breach in breaches:
        print(f"BUDGET: {breach}")

    spans = [span for record in records for span in record.pop("spans")]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / "trace.json").write_text(json.dumps({"spans": spans}))
        print(f"spans written to {OUT_DIR / 'trace.json'}")
    if args.json:
        append_run(args.json, {
            "stamp": stamp(records), "seed": args.seed, "seconds": seconds,
            "workloads": {record["workload"]: record for record in records}})

    code = exit_code(records, breaches)
    if args.workload:
        record = records[0]
        kind = "per_layer" if trace else "end_to_end"
        if kind not in record:
            return 1            # the body raised: no result to print
        attempted, failed = check_counts(record)
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": driver_metrics(record, benchmark, kind)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
