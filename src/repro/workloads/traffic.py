"""Arrival-process generators shared by workloads and the serving layer.

Kept free of engine/serving dependencies so both
:mod:`repro.workloads.arrivals` and :mod:`repro.serve.service` can use
it without an import cycle.
"""

from __future__ import annotations

import math

import numpy as np


def poisson_arrivals(rng, rate_per_hour: float, window_s: float
                     ) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process over the window."""
    # NaN fails every comparison; an infinite rate or window would
    # never end the loop below.
    if not 0 < rate_per_hour < math.inf:
        raise ValueError(f"rate must be positive and finite, got "
                         f"{rate_per_hour}")
    if not 0 < window_s < math.inf:
        raise ValueError(f"window must be positive and finite, got "
                         f"{window_s}")
    times = []
    now = 0.0
    rate_per_s = rate_per_hour / 3_600.0
    while True:
        now += rng.exponential(1.0 / rate_per_s)
        if now >= window_s:
            return times
        times.append(now)


def zipf_trace(rng, tenants: int, events: int, window_s: float,
               s: float = 1.2):
    """A Zipf-skewed multi-tenant arrival trace with full tenant coverage.

    Returns ``(times, tenant_ids)`` as numpy arrays of length
    ``events``: arrival offsets sorted over ``[0, window_s)`` and the
    integer tenant id of each arrival. Every one of the ``tenants``
    distinct ids appears at least once (``events >= tenants`` is
    required) — the coverage slice is a permutation of the id space —
    while the remaining draws follow a Zipf law with exponent ``s``,
    clipped to the id space, so a heavy head coexists with a
    million-id long tail.

    Generation is fully vectorized: cost is O(events) time and memory
    (two numpy arrays), never O(tenants) Python objects — callers
    materialize per-tenant state lazily as ids first appear.
    """
    if tenants <= 0 or events <= 0:
        raise ValueError("tenants and events must be positive")
    if events < tenants:
        raise ValueError(
            f"need events >= tenants for full coverage "
            f"({events} < {tenants})")
    if window_s <= 0:
        raise ValueError("window must be positive")
    if s <= 1.0:
        raise ValueError("zipf exponent must exceed 1.0")
    coverage = rng.permutation(tenants)
    extra = rng.zipf(s, size=events - tenants) - 1
    ids = np.concatenate([coverage, np.minimum(extra, tenants - 1)])
    rng.shuffle(ids)
    times = rng.uniform(0.0, window_s, size=events)
    times.sort()
    return times, ids.astype(np.int64, copy=False)

