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

    def columns(self) -> set[str]:
        """Names of all columns this expression reads."""
        return set()


class Col(Expr):
    """A column reference."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        return batch.column(self.name)

    def columns(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"Col({self.name!r})"


class Lit(Expr):
    """A literal constant."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        return np.full(len(batch), self.value)

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


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

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


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

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


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

    def columns(self) -> set[str]:
        found: set[str] = set()
        for term in self.terms:
            found |= term.columns()
        return found


class Or(Expr):
    """Logical disjunction of boolean expressions."""

    def __init__(self, *terms: Expr) -> None:
        if not terms:
            raise ValueError("Or needs at least one term")
        self.terms = terms

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        result = self.terms[0].evaluate(batch).astype(bool)
        for term in self.terms[1:]:
            result = result | term.evaluate(batch).astype(bool)
        return result

    def columns(self) -> set[str]:
        found: set[str] = set()
        for term in self.terms:
            found |= term.columns()
        return found


class Not(Expr):
    """Logical negation."""

    def __init__(self, term: Expr) -> None:
        self.term = term

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        return ~self.term.evaluate(batch).astype(bool)

    def columns(self) -> set[str]:
        return self.term.columns()


class Between(Expr):
    """Inclusive range check: low <= expr <= high."""

    def __init__(self, expr: Expr, low: Any, high: Any) -> None:
        self.expr = expr
        self.low = low
        self.high = high

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        values = self.expr.evaluate(batch)
        return (values >= self.low) & (values <= self.high)

    def columns(self) -> set[str]:
        return self.expr.columns()


class InSet(Expr):
    """Set membership check."""

    def __init__(self, expr: Expr, values: list) -> None:
        self.expr = expr
        self.values = list(values)

    def evaluate(self, batch: RecordBatch) -> np.ndarray:
        column = self.expr.evaluate(batch)
        return np.isin(column, self.values)

    def columns(self) -> set[str]:
        return self.expr.columns()


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

    def columns(self) -> set[str]:
        return (self.condition.columns() | self.then.columns()
                | self.otherwise.columns())
