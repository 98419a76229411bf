"""Fault-tolerant query execution under a chaos fault plan.

Runs the same query sequence three ways:

1. fault-free baseline;
2. under the ``demo-outage`` plan *without* recovery — the pre-recovery
   engine behaviour, where an injected worker crash kills the query;
3. under the same plan *with* task-level retries and hedging — every
   query completes, and the resilience report itemizes what recovery
   cost in extra runtime and cents.

Run with::

    python examples/fault_tolerant_query.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.chaos import get_plan
from repro.chaos.runner import run_chaos_suite
from repro.faas.supervisor import RecoveryPolicy


def main() -> None:
    plan = get_plan("demo-outage")
    print(f"fault plan {plan.name!r}: {plan.description}")
    for spec in plan.specs:
        print(f"  - {spec.kind}: p={spec.probability}, "
              f"delay={spec.delay_s}s, max={spec.max_events}")
    print()

    # Without recovery (the pre-recovery engine: one attempt, no hedges)
    # injected crashes surface as FragmentFailure and kill queries.
    fragile = run_chaos_suite(
        plan, repeats=2, seed=0, baseline=False,
        recovery=RecoveryPolicy(max_attempts=1, hedge=False))
    print("--- recovery disabled (max_attempts=1) ---")
    print(f"goodput {fragile.goodput * 100:.0f}%: "
          f"{fragile.unrecovered} of {fragile.offered} queries failed")
    for outcome in fragile.outcomes:
        if not outcome.ok:
            print(f"  {outcome.query} run {outcome.run}: {outcome.error}")
    print()

    # With retries + hedging, the same fault sequence is absorbed: the
    # baseline pass makes the report show the latency/cost of recovery.
    print("--- recovery enabled (retries + hedging) ---")
    report = run_chaos_suite(plan, repeats=2, seed=0)
    print(report.format())
    print()
    print(f"recovery overhead: +{report.total_recovery_latency_s:.2f}s "
          f"runtime, +{report.total_cost_overhead_cents:.4f} cents "
          f"({report.total_retry_cost_cents:.4f} cents of retried/hedged "
          f"compute)")


if __name__ == "__main__":
    main()
