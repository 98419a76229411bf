"""Hash aggregation with partial/final decomposition.

Distributed aggregation runs in two phases: map-side *partial* aggregates
produce mergeable state columns (sums, counts, mins, maxes), which are
shuffled and combined by a *final* aggregate. ``complete`` mode performs
both phases locally (single-stage queries and the reference executor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.expressions import Expr
from repro.engine.operators.base import Operator
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema

SUPPORTED_FUNCS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class AggSpec:
    """One aggregation: ``out_name = func(expr)``."""

    out_name: str
    func: str
    expr: Expr | None = None  # count(*) needs no input expression

    def __post_init__(self) -> None:
        if self.func not in SUPPORTED_FUNCS:
            raise ValueError(f"unsupported aggregate {self.func!r}")
        if self.expr is None and self.func != "count":
            raise ValueError(f"{self.func} needs an input expression")


class HashAggregateOperator(Operator):
    """Group-by aggregation over a materialized batch."""

    cost_class = "aggregate"

    def __init__(self, group_keys: list[str], aggs: list[AggSpec],
                 mode: str = "complete") -> None:
        if mode not in ("partial", "final", "complete"):
            raise ValueError(f"unknown aggregate mode {mode!r}")
        self.group_keys = list(group_keys)
        self.aggs = list(aggs)
        self.mode = mode

    # -- execution -------------------------------------------------------------

    def execute(self, batch: RecordBatch, sides: dict | None = None
                ) -> RecordBatch:
        if self.mode == "final":
            return self._final(batch)
        grouped = self._group(batch)
        if self.mode == "partial":
            return self._partial_output(batch, grouped)
        return self._complete_output(batch, grouped)

    def _group(self, batch: RecordBatch):
        """Return (unique key arrays per column, inverse index, count)."""
        n = len(batch)
        if not self.group_keys:
            # Global aggregate: everything falls into one group.
            return {}, np.zeros(n, dtype=np.int64), 1
        key_arrays = [batch.column(k) for k in self.group_keys]
        # Stringify column-at-a-time (tolist() unboxes numpy scalars,
        # whose str() matches the Python equivalents') and join across
        # columns — same composites as the old per-row generator without
        # the per-row Python frames.
        cols = [[str(v) for v in values.tolist()] for values in key_arrays]
        if len(cols) == 1:
            composite = np.array(cols[0], dtype=object)
        else:
            composite = np.array(["\x1f".join(row) for row in zip(*cols)],
                                 dtype=object)
        # np.unique returns sorted uniques; ``first_index`` is the first
        # row of each group, used to recover typed key values.
        uniques, first_index, inverse = np.unique(
            composite, return_index=True, return_inverse=True)
        keys = {}
        for name, values in zip(self.group_keys, key_arrays):
            keys[name] = values[first_index]
        return keys, inverse, len(uniques)

    def _reduce(self, func: str, values: np.ndarray, inverse: np.ndarray,
                groups: int) -> np.ndarray:
        if func == "sum":
            out = np.zeros(groups, dtype=np.float64)
            np.add.at(out, inverse, values.astype(np.float64))
            return out
        if func == "count":
            return np.bincount(inverse, minlength=groups).astype(np.int64)
        if func == "min":
            out = np.full(groups, np.inf)
            np.minimum.at(out, inverse, values.astype(np.float64))
            return out
        if func == "max":
            out = np.full(groups, -np.inf)
            np.maximum.at(out, inverse, values.astype(np.float64))
            return out
        raise AssertionError(f"unreachable: {func}")

    def _partial_output(self, batch: RecordBatch, grouped) -> RecordBatch:
        keys, inverse, groups = grouped
        fields = [Field(name, batch.schema.field(name).dtype)
                  for name in self.group_keys]
        columns = dict(keys)
        for spec in self.aggs:
            values = (spec.expr.evaluate(batch) if spec.expr is not None
                      else np.ones(len(batch)))
            for state, func in _partial_states(spec.func):
                name = f"{spec.out_name}__{state}"
                reduced = self._reduce(func, values, inverse, groups)
                dtype = DataType.INT64 if func == "count" else DataType.FLOAT64
                fields.append(Field(name, dtype))
                columns[name] = reduced
        out = RecordBatch(Schema(fields), columns)
        out.logical_bytes = _scaled_logical(batch, out)
        return out

    def _final(self, batch: RecordBatch) -> RecordBatch:
        # Re-group partial states by key and merge.
        keys, inverse, groups = self._group(batch)
        fields = [Field(name, batch.schema.field(name).dtype)
                  for name in self.group_keys]
        columns = dict(keys)
        for spec in self.aggs:
            merged_states: dict[str, np.ndarray] = {}
            for state, _ in _partial_states(spec.func):
                state_col = batch.column(f"{spec.out_name}__{state}")
                merge_func = "min" if state == "min" else (
                    "max" if state == "max" else "sum")
                merged_states[state] = self._reduce(
                    merge_func, state_col, inverse, groups)
            value, dtype = _finalize(spec.func, merged_states)
            fields.append(Field(spec.out_name, dtype))
            columns[spec.out_name] = value
        out = RecordBatch(Schema(fields), columns)
        out.logical_bytes = _scaled_logical(batch, out)
        return out

    def _complete_output(self, batch: RecordBatch, grouped) -> RecordBatch:
        keys, inverse, groups = grouped
        fields = [Field(name, batch.schema.field(name).dtype)
                  for name in self.group_keys]
        columns = dict(keys)
        for spec in self.aggs:
            values = (spec.expr.evaluate(batch) if spec.expr is not None
                      else np.ones(len(batch)))
            states = {state: self._reduce(func, values, inverse, groups)
                      for state, func in _partial_states(spec.func)}
            value, dtype = _finalize(spec.func, states)
            fields.append(Field(spec.out_name, dtype))
            columns[spec.out_name] = value
        out = RecordBatch(Schema(fields), columns)
        out.logical_bytes = _scaled_logical(batch, out)
        return out


def _partial_states(func: str) -> list[tuple[str, str]]:
    """State columns (name suffix, reducer) a function needs."""
    if func == "sum":
        return [("sum", "sum")]
    if func == "count":
        return [("count", "count")]
    if func == "avg":
        return [("sum", "sum"), ("count", "count")]
    if func == "min":
        return [("min", "min")]
    if func == "max":
        return [("max", "max")]
    raise AssertionError(f"unreachable: {func}")


def _finalize(func: str, states: dict[str, np.ndarray]):
    """Combine state columns into the final value (value, dtype)."""
    if func == "sum":
        return states["sum"], DataType.FLOAT64
    if func == "count":
        return states["count"].astype(np.int64), DataType.INT64
    if func == "avg":
        counts = states["count"].astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            value = np.where(counts > 0, states["sum"] / counts, 0.0)
        return value, DataType.FLOAT64
    if func == "min":
        return states["min"], DataType.FLOAT64
    if func == "max":
        return states["max"], DataType.FLOAT64
    raise AssertionError(f"unreachable: {func}")


def _scaled_logical(before: RecordBatch, after: RecordBatch) -> float:
    """Aggregates shrink data massively; scale by the physical ratio."""
    physical_before = max(before.physical_bytes, 1)
    return before.logical_bytes * (after.physical_bytes / physical_before)
