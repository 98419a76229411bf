"""Benchmark-suite configuration.

Each benchmark module regenerates one table or figure of the paper:
it runs the corresponding experiment on the simulated infrastructure,
prints (and saves under ``benchmarks/results/``) a paper-style rendering,
and asserts the qualitative shape the paper reports. Figures 5-13 run
their entry of the experiment registry through the driver
(:func:`run_registry`), the same configs ``repro suite`` runs.
"""

import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core import Driver
from repro.workloads.registry import experiments

RESULTS_DIR = Path(__file__).parent / "results"


def run_registry(paper_id: str) -> list:
    """Driver results of one registry entry, in registry order."""
    driver = Driver()
    return [driver.run(config) for config in experiments()[paper_id]]


def save_artifact(name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")
