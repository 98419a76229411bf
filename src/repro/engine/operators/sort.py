"""Sort operator: stable multi-key ordering."""

from __future__ import annotations

import numpy as np

from repro.engine.operators.base import Operator
from repro.formats.batch import RecordBatch


class SortOperator(Operator):
    """Order rows by one or more keys (last key is primary for lexsort)."""

    cost_class = "sort"

    def __init__(self, keys: list[str], ascending: list[bool] | None = None
                 ) -> None:
        if not keys:
            raise ValueError("sort needs at least one key")
        self.keys = list(keys)
        self.ascending = (list(ascending) if ascending is not None
                          else [True] * len(keys))
        if len(self.ascending) != len(self.keys):
            raise ValueError("ascending flags must match keys")

    def execute(self, batch: RecordBatch, sides: dict | None = None
                ) -> RecordBatch:
        if len(batch) == 0:
            return batch
        # np.lexsort sorts by the LAST key first; feed keys reversed so
        # self.keys[0] is the primary sort key.
        arrays = []
        for key, asc in zip(reversed(self.keys), reversed(self.ascending)):
            column = batch.column(key)
            if not asc:
                column = _invert(column)
            arrays.append(column)
        order = np.lexsort(arrays)
        return batch.take(order)


def _invert(column: np.ndarray) -> np.ndarray:
    """Key transform for descending order."""
    if column.dtype.kind in ("i", "f", "u"):
        return -column
    # Strings: rank-invert via sorted unique codes.
    uniques, inverse = np.unique(column.astype(str), return_inverse=True)
    return len(uniques) - 1 - inverse
