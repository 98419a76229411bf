"""Vectorized physical operators.

Each operator transforms a materialized :class:`~repro.formats.batch.
RecordBatch` into another. Operators are stateless specs that plans
embed and workers execute as handed; they also report which CPU cost
class they belong to so the worker can charge simulated compute time.
"""

from repro.engine.operators.base import Operator
from repro.engine.operators.filter import FilterOperator
from repro.engine.operators.project import ProjectOperator
from repro.engine.operators.aggregate import AggSpec, HashAggregateOperator
from repro.engine.operators.join import HashJoinOperator
from repro.engine.operators.sort import SortOperator
from repro.engine.operators.limit import LimitOperator
from repro.engine.operators.udf import MapUdfOperator, register_udf, resolve_udf

__all__ = [
    "AggSpec",
    "FilterOperator",
    "HashAggregateOperator",
    "HashJoinOperator",
    "LimitOperator",
    "MapUdfOperator",
    "Operator",
    "ProjectOperator",
    "SortOperator",
    "register_udf",
    "resolve_udf",
]
