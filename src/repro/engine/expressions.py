"""Scalar expressions evaluated vectorized over record batches.

Expressions form a small AST of plain objects that physical plans embed
(Section 3.2). ``evaluate`` returns a numpy array aligned with the
batch's rows.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.formats.batch import RecordBatch

_COMPARATORS: dict[str, Callable[[np.ndarray, Any], np.ndarray]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_ARITHMETIC: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Expr:
    """Base expression node."""

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        """Vectorized evaluation against a batch."""
        raise NotImplementedError


class Col(Expr):
    """A column reference."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        return batch.column(self.name)


class Lit(Expr):
    """A literal constant."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        return np.full(len(batch), self.value)


class BinOp(Expr):
    """Arithmetic between two expressions."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITHMETIC:
            raise ValueError(f"unknown arithmetic op {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        return _ARITHMETIC[self.op](self.left.evaluate(batch),
                                    self.right.evaluate(batch))


class Compare(Expr):
    """Comparison producing a boolean mask."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARATORS:
            raise ValueError(f"unknown comparator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        return _COMPARATORS[self.op](self.left.evaluate(batch),
                                     self.right.evaluate(batch))


class And(Expr):
    """Logical conjunction of boolean expressions."""

    def __init__(self, *terms: Expr) -> None:
        if not terms:
            raise ValueError("And needs at least one term")
        self.terms = terms

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        result = self.terms[0].evaluate(batch).astype(bool)
        for term in self.terms[1:]:
            result = result & term.evaluate(batch).astype(bool)
        return result


class Between(Expr):
    """Inclusive range check: low <= expr <= high."""

    def __init__(self, expr: Expr, low: Any, high: Any) -> None:
        self.expr = expr
        self.low = low
        self.high = high

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        values = self.expr.evaluate(batch)
        return (values >= self.low) & (values <= self.high)


class InSet(Expr):
    """Set membership check."""

    def __init__(self, expr: Expr, values: list) -> None:
        self.expr = expr
        self.values = list(values)

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        column = self.expr.evaluate(batch)
        return np.isin(column, self.values)


class IfThenElse(Expr):
    """Vectorized conditional (SQL CASE WHEN)."""

    def __init__(self, condition: Expr, then: Expr, otherwise: Expr) -> None:
        self.condition = condition
        self.then = then
        self.otherwise = otherwise

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        return np.where(self.condition.evaluate(batch).astype(bool),
                        self.then.evaluate(batch),
                        self.otherwise.evaluate(batch))

