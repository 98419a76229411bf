"""Scenario: drive the framework through a slice of the paper's evaluation.

Uses the predefined experiment suites (``repro.core.suites``,
``repro.workloads.suite``) and the framework :class:`~repro.core.Driver`
exactly as Figure 3 describes: config in, JSON result (with cost
estimate) out. Results land under ``results/`` next to this script.

Run with::

    python examples/run_full_evaluation.py            # a quick subset
    python examples/run_full_evaluation.py --full     # everything
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.core import Driver
from repro.core.suites import network_suite, startup_suite
from repro.workloads.suite import full_evaluation, query_suite

RESULTS_DIR = Path(__file__).parent / "results"


def main() -> None:
    if "--full" in sys.argv:
        configs = full_evaluation()
    else:
        # A quick subset: one experiment per section.
        configs = [network_suite()[0], query_suite()[1],
                   startup_suite()[0]]
    driver = Driver()
    total_cost = 0.0
    for config in configs:
        print(f"running {config.name} ({config.kind}) ...", flush=True)
        result = driver.run(config)
        path = result.save(RESULTS_DIR / f"{config.name}.json")
        total_cost += result.cost_usd
        headline = ", ".join(f"{k}={v:.4g}"
                             for k, v in list(result.metrics.items())[:3])
        print(f"  -> {headline}")
        print(f"  -> saved {path} (estimated cost ${result.cost_usd:.4f})")
    print(f"\n{len(configs)} experiments, estimated total cloud cost "
          f"${total_cost:.2f} (the paper's full evaluation cost ~$4,000).")


if __name__ == "__main__":
    main()
