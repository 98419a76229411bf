"""The Skyrise evaluation framework (Section 3).

The framework automates experiment setup, execution, and result
processing across two levels of the stack:

* **resource level** — microbenchmarks for compute, network, and storage
  (:mod:`repro.core.micro`): the network I/O, storage I/O, and minimal
  functions of Table 3;
* **application level** — full queries on the integrated Skyrise query
  engine (:mod:`repro.engine`), driven by :mod:`repro.workloads`.

Experiments are described by :class:`~repro.core.config.ExperimentConfig`
objects, executed by the :class:`~repro.core.driver.Driver`, and produce
:class:`~repro.core.results.ExperimentResult` records (JSON-serializable,
with cost estimates) that the text plotter renders. ``repro suite`` and
the Figure 5-13 benchmarks run one set of configs, the registry in
:mod:`repro.workloads.registry`.
"""

from repro.core.context import CloudSim
from repro.core.config import ExperimentConfig
from repro.core.driver import Driver
from repro.core.results import ExperimentResult
from repro.core.plotter import ascii_timeseries, format_table

__all__ = [
    "CloudSim",
    "Driver",
    "ExperimentConfig",
    "ExperimentResult",
    "ascii_timeseries",
    "format_table",
]
