"""Projection operator: compute output columns from expressions."""

from __future__ import annotations

import numpy as np

from repro.engine.expressions import Expr
from repro.engine.operators.base import Operator
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema


class ProjectOperator(Operator):
    """Evaluate (name, expression, type) triples into a fresh batch."""

    cost_class = "project"

    def __init__(self, outputs: list[tuple[str, Expr, DataType]]) -> None:
        if not outputs:
            raise ValueError("projection needs at least one output column")
        self.outputs = outputs

    def execute(self, batch: RecordBatch, sides: dict | None = None
                ) -> RecordBatch:
        fields = []
        columns = {}
        for name, expr, dtype in self.outputs:
            fields.append(Field(name, dtype))
            values = expr.evaluate(batch)
            if dtype is not DataType.STRING:
                values = np.asarray(values).astype(dtype.numpy_dtype)
            columns[name] = values
        schema = Schema(fields)
        out = RecordBatch(schema, columns)
        out.logical_bytes = batch.logical_bytes * _width_ratio(batch, out)
        return out


def _width_ratio(before: RecordBatch, after: RecordBatch) -> float:
    def width(batch: RecordBatch) -> float:
        total = 0.0
        for field in batch.schema:
            fixed = field.dtype.fixed_width
            total += fixed if fixed is not None else 16.0
        return total

    denominator = width(before)
    return width(after) / denominator if denominator else 1.0
