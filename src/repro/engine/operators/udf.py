"""User-defined function operator.

UDFs are batch-level callables ``fn(batch, sides) -> RecordBatch``
registered by name — function binaries ship with their UDFs compiled in
(Section 3.2), so plans reference them symbolically. TPCx-BB Q3's
sessionization logic is the flagship user.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.operators.base import Operator
from repro.formats.batch import RecordBatch

UdfCallable = Callable[[RecordBatch, dict], RecordBatch]

_REGISTRY: dict[str, UdfCallable] = {}


def register_udf(name: str, fn: UdfCallable) -> None:
    """Register ``fn`` under ``name`` (overwrites an existing entry)."""
    _REGISTRY[name] = fn


def resolve_udf(name: str) -> UdfCallable:
    """Look up a registered UDF."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"UDF {name!r} is not registered; known: "
                       f"{sorted(_REGISTRY)}") from None


class MapUdfOperator(Operator):
    """Apply a registered UDF to the batch."""

    cost_class = "udf"

    def __init__(self, udf_name: str) -> None:
        self.udf_name = udf_name

    def execute(self, batch: RecordBatch, sides: dict | None = None
                ) -> RecordBatch:
        fn = resolve_udf(self.udf_name)
        before_logical = batch.logical_bytes
        before_physical = max(batch.physical_bytes, 1)
        out = fn(batch, sides or {})
        # Scale logical bytes by the UDF's physical expansion/contraction.
        out.logical_bytes = before_logical * (out.physical_bytes
                                              / before_physical)
        return out
