"""Scenario: drive the framework through a slice of the paper's evaluation.

Runs configs from the experiment registry (``repro.workloads.registry``,
the same configs ``repro suite`` runs and the gated Figures 5-13 assert
on) through the framework :class:`~repro.core.Driver` exactly as
Figure 3 describes: config in, JSON result (with cost estimate) out.
Results land under ``results/`` next to this script.

Run with::

    python examples/run_full_evaluation.py            # a quick subset
    python examples/run_full_evaluation.py --full     # everything
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.workloads.registry import experiments, run_configs, suite

RESULTS_DIR = Path(__file__).parent / "results"


def main() -> None:
    if "--full" in sys.argv:
        configs = suite("full")
    else:
        # A quick subset: one experiment per level.
        registry = experiments()
        configs = [registry["fig5"][0], registry["query"][1],
                   registry["startup"][0]]
    results = run_configs(configs, RESULTS_DIR)
    total_cost = sum(result.cost_usd for result in results)
    print(f"\n{len(configs)} experiments, estimated total cloud cost "
          f"${total_cost:.2f} (the paper's full evaluation cost ~$4,000).")


if __name__ == "__main__":
    main()
