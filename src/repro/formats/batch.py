"""In-memory record batches: the engine's vectorized unit of work.

A :class:`RecordBatch` is a struct-of-arrays over numpy. Batches carry a
``logical_bytes`` annotation: the byte volume this batch *represents* in
the modelled dataset (which may be scaled up relative to the physically
materialized rows — see the dataset scale knob in DESIGN.md). Operators
propagate the annotation proportionally so that simulated I/O and CPU
times reflect the modelled scale.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from repro.formats.schema import DataType, Schema


class RecordBatch:
    """A set of equally long columns with a schema."""

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray],
                 logical_bytes: Optional[float] = None) -> None:
        self.schema = schema
        self.columns: dict[str, np.ndarray] = {}
        length = None
        for field in schema:
            if field.name not in columns:
                raise ValueError(f"missing column {field.name!r}")
            array = np.asarray(columns[field.name])
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise ValueError(
                    f"column {field.name!r} has {len(array)} rows, "
                    f"expected {length}")
            self.columns[field.name] = array
        self._length = length if length is not None else 0
        self._physical: Optional[int] = None
        self.logical_bytes = (float(logical_bytes) if logical_bytes is not None
                              else float(self.physical_bytes))

    def __len__(self) -> int:
        return self._length

    @property
    def num_rows(self) -> int:
        """Number of rows in the batch."""
        return self._length

    @property
    def physical_bytes(self) -> int:
        """Actual in-memory footprint of the column data.

        Computed once and cached: column arrays are never replaced after
        construction (operators build new batches instead), and the
        string measurement walks every value.
        """
        if self._physical is not None:
            return self._physical
        total = 0
        for field in self.schema:
            array = self.columns[field.name]
            if field.dtype is DataType.STRING:
                total += (sum(len(str(v)) for v in array.tolist())
                          + 4 * len(array))
            else:
                total += array.nbytes
        self._physical = total
        return total

    def column(self, name: str) -> np.ndarray:
        """The column array for ``name``."""
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"no column {name!r}; have "
                           f"{self.schema.names()}") from None

    def select(self, names: Iterable[str]) -> "RecordBatch":
        """Project to the named columns, scaling logical bytes by width."""
        names = list(names)
        sub_schema = self.schema.select(names)
        fraction = _width_fraction(self.schema, sub_schema)
        return RecordBatch(sub_schema,
                           {name: self.columns[name] for name in names},
                           logical_bytes=self.logical_bytes * fraction)

    def take(self, mask_or_indices: np.ndarray) -> "RecordBatch":
        """Row subset by boolean mask or index array, scaling logical bytes."""
        out = {name: array[mask_or_indices]
               for name, array in self.columns.items()}
        first = next(iter(out.values())) if out else np.empty(0)
        out_rows = len(first)
        ratio = out_rows / self._length if self._length else 0.0
        return RecordBatch(self.schema, out,
                           logical_bytes=self.logical_bytes * ratio)

    @classmethod
    def concat(cls, batches: list["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches with identical schemas."""
        if not batches:
            raise ValueError("cannot concat zero batches")
        schema = batches[0].schema
        for batch in batches[1:]:
            if batch.schema != schema:
                raise ValueError("schema mismatch in concat")
        columns = {
            field.name: np.concatenate([b.columns[field.name]
                                        for b in batches])
            for field in schema
        }
        logical = sum(batch.logical_bytes for batch in batches)
        return cls(schema, columns, logical_bytes=logical)

    def to_pydict(self) -> dict[str, list]:
        """Plain-Python column dictionary (tests and debugging)."""
        return {name: list(array) for name, array in self.columns.items()}


def read_only(batch: RecordBatch) -> RecordBatch:
    """``batch`` with its arrays made read-only, for handing over by
    reference: a consumer that writes into a shared array raises."""
    for array in batch.columns.values():
        array.flags.writeable = False
    return batch


def _width_fraction(full: Schema, sub: Schema) -> float:
    """Approximate byte-width fraction of a column subset."""

    def width(schema: Schema) -> float:
        total = 0.0
        for field in schema:
            fixed = field.dtype.fixed_width
            total += fixed if fixed is not None else 16.0  # avg string
        return total

    full_width = width(full)
    return width(sub) / full_width if full_width else 1.0
