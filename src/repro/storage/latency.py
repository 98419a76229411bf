"""Calibrated request latency distributions.

Figure 10 of the paper shows per-service latency distributions over one
million 1 KiB requests. We model each service/operation pair as a
lognormal body (parameterized by its median and 95th percentile) mixed
with a Pareto tail that produces the rare extreme outliers S3 Standard
exhibits (slowest read ~374x the median).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatencyModel:
    """Lognormal-body + Pareto-tail latency distribution.

    Parameters
    ----------
    median:
        Median latency in seconds.
    p95:
        95th-percentile latency in seconds; must exceed ``median``.
    tail_probability:
        Chance that a request falls into the heavy Pareto tail.
    tail_alpha:
        Pareto shape for tail samples (smaller = heavier tail).
    ceiling:
        Hard upper bound on any sample (service-side request deadline).
    """

    median: float
    p95: float
    tail_probability: float = 0.0
    tail_alpha: float = 1.5
    ceiling: float = 30.0

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ValueError(f"median must be positive, got {self.median}")
        if self.p95 < self.median:
            raise ValueError("p95 must be >= median")
        if not 0 <= self.tail_probability < 1:
            raise ValueError("tail_probability must be in [0, 1)")
        # Distribution parameters are fixed for the model's lifetime but
        # were recomputed (two ``math.log`` calls) on every sample — and
        # first-byte latency is drawn once per simulated request. The
        # dataclass is frozen, so stash them via object.__setattr__.
        if self.p95 == self.median:
            sigma = 0.0
        else:
            # For X ~ LogNormal(mu, sigma): p95 = median * exp(1.645 * sigma).
            sigma = math.log(self.p95 / self.median) / 1.6448536269514722
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "_mu", math.log(self.median))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` latencies (seconds) as a numpy array."""
        body = rng.lognormal(mean=self._mu, sigma=self._sigma, size=size)
        if self.tail_probability > 0:
            in_tail = rng.random(size) < self.tail_probability
            n_tail = int(in_tail.sum())
            if n_tail:
                # Tail samples start at the p95 and decay as Pareto(alpha).
                tail = self.p95 * (1.0 + rng.pareto(self.tail_alpha, size=n_tail))
                body[in_tail] = tail
        return np.minimum(body, self.ceiling)

    def sample_one(self, rng: np.random.Generator) -> float:
        """Draw a single latency (seconds).

        Scalar twin of ``sample(size=1)``: it draws from ``rng`` in the
        same order and quantity (one lognormal, one uniform when the
        tail is enabled, one Pareto when taken), so the two paths yield
        bit-identical streams.
        """
        body = rng.lognormal(mean=self._mu, sigma=self._sigma)
        if self.tail_probability > 0 and rng.random() < self.tail_probability:
            body = self.p95 * (1.0 + rng.pareto(self.tail_alpha))
        return float(body) if body < self.ceiling else float(self.ceiling)


def percentile_summary(samples: np.ndarray) -> dict[str, float]:
    """Summary statistics used when reporting Figure 10 style results."""
    return {
        "p50": float(np.percentile(samples, 50)),
        "p95": float(np.percentile(samples, 95)),
        "p99": float(np.percentile(samples, 99)),
        "max": float(np.max(samples)),
        "mean": float(np.mean(samples)),
    }
