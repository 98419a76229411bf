"""Experiment results: metrics, series, cost — JSON persistable.

Mirrors the paper's flow: "the driver aggregates these results and
estimates the experiment cost using the AWS price list service ...
finally, the driver stores the results in a JSON file and hands them to
a plotter" (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.telemetry.export import canonical_json


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    name: str
    kind: str
    parameters: dict[str, Any] = field(default_factory=dict)
    #: Scalar result metrics (latencies, throughputs, counts).
    metrics: dict[str, float] = field(default_factory=dict)
    #: Named time/parameter series: label -> list of (x, y) pairs.
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: Estimated experiment cost in dollars.
    cost_usd: float = 0.0

    def add_series(self, label: str, xs, ys) -> None:
        """Record a series from parallel x/y sequences."""
        self.series[label] = [(float(x), float(y)) for x, y in zip(xs, ys)]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "parameters": self.parameters,
            "metrics": self.metrics,
            "series": {label: [[x, y] for x, y in points]
                       for label, points in self.series.items()},
            "cost_usd": self.cost_usd,
        }

    def save(self, path: str | Path) -> Path:
        """Write the result as byte-stable pretty-printed JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_json(self.to_dict()))
        return path
