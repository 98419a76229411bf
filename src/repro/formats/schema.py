"""Logical schema: data types and fields."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class DataType(enum.Enum):
    """Logical column types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    #: Dates are stored as int32 days since 1970-01-01.
    DATE = "date"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype backing this logical type."""
        return _NUMPY_DTYPES[self]

    @property
    def fixed_width(self) -> int | None:
        """Bytes per value for fixed-width types, ``None`` for strings."""
        return _FIXED_WIDTHS[self]


#: Per-type constants, looked up by the properties above: both are hit
#: on every column of every batch, so the dtype objects are built once.
_NUMPY_DTYPES = {
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT64: np.dtype(np.float64),
    DataType.DATE: np.dtype(np.int32),
    DataType.STRING: np.dtype(object),
}
_FIXED_WIDTHS = {
    dtype: (None if dtype is DataType.STRING
            else _NUMPY_DTYPES[dtype].itemsize)
    for dtype in DataType
}


@dataclass(frozen=True)
class Field:
    """A named, typed column."""

    name: str
    dtype: DataType

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("field name must be non-empty")


class Schema:
    """An ordered collection of fields with name-based lookup."""

    def __init__(self, fields: Iterable[Field]) -> None:
        self.fields = tuple(fields)
        self._index = {field.name: i for i, field in enumerate(self.fields)}
        if len(self._index) != len(self.fields):
            raise ValueError("duplicate field names in schema")

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def field(self, name: str) -> Field:
        """Look up a field by name."""
        try:
            return self.fields[self._index[name]]
        except KeyError:
            raise KeyError(f"no field {name!r}; have {self.names()}") from None

    def names(self) -> list[str]:
        """All field names, in order."""
        return [field.name for field in self.fields]

    def select(self, names: Iterable[str]) -> "Schema":
        """A new schema with only the named fields, in the given order."""
        return Schema([self.field(name) for name in names])
