"""Judge sets of ledger runs against each other, metric by metric.

    python benchmarks/ledger/compare.py A.json B.json [...]

Each file is a set of runs written by ``run.py --json`` (one run
appended per invocation). The first set is the base; every later set is
compared with it. For each workload × end-to-end metric, in its own row:
each side's median and quartiles, the ratio of the medians with its
base, and a verdict against the bound ``BENCHMARK.json`` fixes for that
metric:

* ``unresolved`` — the spread between one side's quartiles is wider than
  the bound, so the runs cannot say;
* ``worse`` / ``better`` — the medians differ by more than the bound;
* ``same`` — they do not.

Exits non-zero on any ``worse`` and on any rise in ``check_fail_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_set(path: Path) -> dict:
    """workload → {"metrics": name → values, "attempted", "failed"}."""
    workloads: dict = {}
    for run in json.loads(path.read_text())["runs"]:
        for name, record in run["workloads"].items():
            entry = workloads.setdefault(
                name, {"metrics": {}, "attempted": 0, "failed": 0})
            checks = record["checks"]
            entry["attempted"] += len(checks)
            entry["failed"] += sum(1 for ok in checks.values() if not ok)
            for metric, value in record.get("end_to_end", {}).items():
                entry["metrics"].setdefault(metric, []).append(value)
    return workloads


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median


def verdict(base: list, other: list, better: str, bound: float) -> str:
    if spread(base) > bound or spread(other) > bound:
        return "unresolved"
    base_median, other_median = quartiles(base)[1], quartiles(other)[1]
    change = (other_median - base_median) / base_median
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base: dict, other: dict, declared: list) -> tuple[list, bool]:
    """Rows of the comparison table, and whether the comparison fails."""
    rows, failed = [], False
    for workload in base:
        if workload not in other:
            continue
        for metric in declared:
            name = metric["name"]
            a = base[workload]["metrics"].get(name)
            b = other[workload]["metrics"].get(name)
            if not a or not b:
                continue
            outcome = verdict(a, b, metric["better"], metric["bound"])
            failed |= outcome == "worse"
            qa, qb = quartiles(a), quartiles(b)
            rows.append(
                f"{workload:<24} {name:<12} "
                f"{qa[1]:>11.5g} [{qa[0]:.5g}, {qa[2]:.5g}] n={len(a):<3} "
                f"{qb[1]:>11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(b):<3} "
                f"x{qb[1] / qa[1]:.3f} of {qa[1]:.5g} {metric['unit']:<4} "
                f"(bound {metric['bound']:.2f}, spread "
                f"{spread(a):.3f}/{spread(b):.3f})  {outcome}")
        share_a = base[workload]["failed"] / base[workload]["attempted"]
        share_b = other[workload]["failed"] / other[workload]["attempted"]
        rose = share_b > share_a
        failed |= rose
        rows.append(f"{workload:<24} {'check_fail_share':<12} "
                    f"{share_a:>11.5g} -> {share_b:.5g}  "
                    f"{'ROSE' if rose else 'ok'}")
    return rows, failed


def main(argv: list) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_path = Path(argv[1])
    base = load_set(base_path)
    failed = False
    for other_path in map(Path, argv[2:]):
        print(f"base {base_path} vs {other_path}")
        print(f"{'workload':<24} {'metric':<12} "
              f"{'base median [q1, q3]':<36} {'other median [q1, q3]':<36} "
              f"ratio of base")
        rows, this_failed = compare(base, load_set(other_path), declared)
        print("\n".join(rows))
        failed |= this_failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
