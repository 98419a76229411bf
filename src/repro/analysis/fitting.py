"""Polynomial fitting and extrapolation (Figure 12).

The paper measures S3 IOPS scaling up to five prefix partitions and
extrapolates the time and request budget needed for up to 20 partitions
(110K IOPS) via polynomial fits of the measured (partitions, time) and
(partitions, cost) points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Degree of every fit: the paper fits quadratics (Figure 12).
FIT_DEGREE = 2


@dataclass
class PolynomialFit:
    """A fitted polynomial with convenience evaluation."""

    coefficients: np.ndarray

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """Evaluate the polynomial."""
        result = np.polyval(self.coefficients, x)
        if np.isscalar(x):
            return float(result)
        return result


def fit_polynomial(xs: Sequence[float],
                   ys: Sequence[float]) -> PolynomialFit:
    """Least-squares polynomial fit of degree :data:`FIT_DEGREE`."""
    xs = np.asarray(list(xs), dtype=np.float64)
    ys = np.asarray(list(ys), dtype=np.float64)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must be equally long")
    if len(xs) <= FIT_DEGREE:
        raise ValueError(f"need more than {FIT_DEGREE} points for a "
                         f"degree-{FIT_DEGREE} fit")
    return PolynomialFit(coefficients=np.polyfit(xs, ys, FIT_DEGREE))


def extrapolate_scaling(measured_partitions: Sequence[float],
                        measured_time_s: Sequence[float],
                        measured_cost_usd: Sequence[float],
                        target_partitions: Sequence[int]) -> list[dict]:
    """Figure 12: extrapolate S3 scaling time and budget.

    Fits quadratics over the measured points and evaluates them at the
    target partition counts; each result row carries the partition count,
    the implied IOPS (5.5K per partition), and the extrapolated time and
    cost.
    """
    time_fit = fit_polynomial(measured_partitions, measured_time_s)
    cost_fit = fit_polynomial(measured_partitions, measured_cost_usd)
    rows = []
    for partitions in target_partitions:
        rows.append({
            "partitions": int(partitions),
            "iops": 5_500.0 * partitions,
            "time_s": max(0.0, float(time_fit(partitions))),
            "cost_usd": max(0.0, float(cost_fit(partitions))),
            "measured": partitions <= max(measured_partitions),
        })
    return rows
