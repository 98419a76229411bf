"""Application-level workloads: the query suite and its protocols.

Wires the Skyrise engine onto a :class:`~repro.core.context.CloudSim`,
loads scaled TPC datasets, and implements the experiment protocols of
Sections 4.5, 4.6, and 5.2: single-query runs with controlled storage
setups, the cold (15-minute intervals over a workday) and warm
(back-to-back) variability suites across regions, and FaaS-vs-IaaS
comparison runs.
"""

from repro.workloads.arrivals import (
    ArrivalOutcome,
    cost_crossover,
    run_arrival_workload,
)
from repro.workloads.traffic import (
    poisson_arrivals,
    zipf_trace,
    zipf_trace_reference,
)
from repro.workloads.suite import (
    SuiteSetup,
    run_query_experiment,
    run_suite_once,
    run_variability_experiment,
    setup_engine,
    table5_metrics,
)

__all__ = [
    "ArrivalOutcome",
    "SuiteSetup",
    "cost_crossover",
    "poisson_arrivals",
    "run_arrival_workload",
    "run_query_experiment",
    "run_suite_once",
    "run_variability_experiment",
    "setup_engine",
    "table5_metrics",
    "zipf_trace",
    "zipf_trace_reference",
]
