"""Filter operator: keep rows matching a boolean expression."""

from __future__ import annotations

from repro.engine.expressions import Expr
from repro.engine.operators.base import Operator
from repro.formats.batch import RecordBatch


class FilterOperator(Operator):
    """Row selection by predicate."""

    cost_class = "filter"

    def __init__(self, predicate: Expr) -> None:
        self.predicate = predicate

    def execute(self, batch: RecordBatch, sides: dict | None = None
                ) -> RecordBatch:
        if len(batch) == 0:
            return batch
        mask = self.predicate.evaluate(batch).astype(bool)
        return batch.take(mask)
