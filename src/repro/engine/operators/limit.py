"""Limit operator: keep the first N rows."""

from __future__ import annotations

import numpy as np

from repro.engine.operators.base import Operator
from repro.formats.batch import RecordBatch


class LimitOperator(Operator):
    """Truncate to at most ``count`` rows."""

    cost_class = "scan"

    def __init__(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"limit must be non-negative, got {count}")
        self.count = count

    def execute(self, batch: RecordBatch, sides: dict | None = None
                ) -> RecordBatch:
        if len(batch) <= self.count:
            return batch
        return batch.take(np.arange(self.count))
