"""Application-level workloads: the query suite and its protocols.

Wires the Skyrise engine onto a :class:`~repro.core.context.CloudSim`,
loads scaled TPC datasets, and implements the experiment protocols of
Sections 4.5, 4.6, and 5.2: single-query runs with controlled storage
setups, the cold (15-minute intervals over a workday) and warm
(back-to-back) variability suites across regions, and FaaS-vs-IaaS
comparison runs.
"""

import importlib

#: Where each exported name lives. The package imports nothing
#: itself (PEP 562): a name loads its own submodule on first use,
#: so a trace generator client (the shard layer) does not load the
#: engine ``suite`` and ``arrivals`` drive.
_EXPORTS = {
    "ArrivalOutcome": "arrivals",
    "cost_crossover": "arrivals",
    "run_arrival_workload": "arrivals",
    "poisson_arrivals": "traffic",
    "zipf_trace": "traffic",
    "SuiteSetup": "suite",
    "run_query_experiment": "suite",
    "run_suite_once": "suite",
    "run_variability_experiment": "suite",
    "setup_engine": "suite",
    "table5_metrics": "suite",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
