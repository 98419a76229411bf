"""Experiment configuration records (Table 3).

A configuration names the system under test, the driver kind, the
function/workload to run, and the experiment parameters. Configurations
parse from JSON (``repro run CONFIG.json``), so an experiment can be
data, not code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any


#: Known experiment kinds, mirroring Table 3's driver column.
EXPERIMENT_KINDS = (
    "network-burst",        # Figure 5: single-function burst profile
    "network-comparison",   # Figure 6: EC2 vs Lambda bursting
    "network-scaling",      # Figure 7: aggregate throughput, VPC on/off
    "storage-throughput",   # Figure 8
    "storage-iops",         # Figure 9
    "storage-latency",      # Figure 10
    "s3-iops-scaling",      # Figures 11, 12
    "s3-downscaling",       # Figure 13
    "function-startup",     # Table 3: startup latency / idle lifetime
    "query",                # Figures 14, 15; Tables 5, 6
)


@dataclass
class ExperimentConfig:
    """One experiment: kind plus free-form parameters."""

    name: str
    kind: str
    parameters: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"known: {EXPERIMENT_KINDS}")

    @classmethod
    def from_json(cls, raw: str) -> "ExperimentConfig":
        """Parse a JSON configuration; ``ValueError`` names what is wrong."""
        data = json.loads(raw)
        if not isinstance(data, dict):
            raise ValueError("a config is a JSON object")
        known = [f.name for f in fields(cls)]
        for key in data:
            if key not in known:
                raise ValueError(f"unknown config key {key!r}; known: {known}")
        for key in ("name", "kind"):
            if key not in data:
                raise ValueError(f"config is missing {key!r}")
        return cls(**data)
