"""Hash join: build on one side, probe with the other.

In distributed execution both inputs arrive pre-partitioned by the join
key (via the storage shuffle), so each worker joins its partition pair
locally. The operator reads its build side from the ``sides`` mapping
under the name configured in the plan.
"""

from __future__ import annotations

import numpy as np

from repro.engine.operators.base import Operator
from repro.formats.batch import RecordBatch
from repro.formats.schema import Field, Schema


class HashJoinOperator(Operator):
    """Inner equi-join of the input batch with a side input."""

    cost_class = "join"

    def __init__(self, probe_key: str, build_side: str, build_key: str) -> None:
        self.probe_key = probe_key
        self.build_side = build_side
        self.build_key = build_key

    def execute(self, batch: RecordBatch, sides: dict | None = None
                ) -> RecordBatch:
        if sides is None or self.build_side not in sides:
            raise ValueError(
                f"join needs side input {self.build_side!r}; have "
                f"{sorted(sides) if sides else []}")
        build: RecordBatch = sides[self.build_side]
        # Build a key -> row-index map over the build side.
        build_keys = build.column(self.build_key)
        index: dict = {}
        for row, key in enumerate(build_keys):
            index.setdefault(key, []).append(row)
        probe_keys = batch.column(self.probe_key)
        probe_rows: list[int] = []
        build_rows: list[int] = []
        for row, key in enumerate(probe_keys):
            matches = index.get(key)
            if matches:
                for build_row in matches:
                    probe_rows.append(row)
                    build_rows.append(build_row)
        probe_idx = np.array(probe_rows, dtype=np.int64)
        build_idx = np.array(build_rows, dtype=np.int64)
        fields = list(batch.schema.fields)
        columns = {field.name: batch.column(field.name)[probe_idx]
                   for field in batch.schema}
        for field in build.schema:
            if field.name == self.build_key or field.name in columns:
                continue  # drop the duplicate key / name collisions
            fields.append(Field(field.name, field.dtype))
            columns[field.name] = build.column(field.name)[build_idx]
        out = RecordBatch(Schema(fields), columns)
        match_ratio = len(probe_idx) / max(len(batch), 1)
        out.logical_bytes = batch.logical_bytes * match_ratio
        return out
