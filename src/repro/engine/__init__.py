"""The Skyrise serverless query engine.

A shared-storage query engine (Section 3.2): the coordinator and workers
run as cloud functions (or on VMs via the shim) and exchange all state
through serverless storage. Queries arrive as physical plans of pipelines;
the coordinator compiles a distributed plan (fragments per pipeline,
worker sizing), schedules pipelines stage-wise, and workers execute
vectorized operators over columnar data, shuffling intermediates through
object storage.

Highlights mirroring the paper:

* two-level function invocation for large worker fleets;
* burst-aware worker sizing (keep per-worker scan volume inside the
  ~300 MiB network burst budget, Section 4.5.1);
* chunked storage reads with straggler re-triggering;
* projection/selection pushdown into the columnar format;
* synchronization barriers injectable to isolate query subflows;
* per-query tracing of I/O, compute, and request counts.
"""

from repro.engine.expressions import (
    And,
    Between,
    BinOp,
    Col,
    Compare,
    IfThenElse,
    InSet,
    Lit,
)
from repro.engine.plan import (
    AggSpec,
    PhysicalPlan,
    PipelineSpec,
    ResultSink,
    ShuffleSink,
    ShuffleSource,
    TableSource,
)
from repro.engine.engine import QueryResult, SkyriseEngine

__all__ = [
    "AggSpec",
    "And",
    "Between",
    "BinOp",
    "Col",
    "Compare",
    "IfThenElse",
    "InSet",
    "Lit",
    "PhysicalPlan",
    "PipelineSpec",
    "QueryResult",
    "ResultSink",
    "ShuffleSink",
    "ShuffleSource",
    "SkyriseEngine",
    "TableSource",
]
