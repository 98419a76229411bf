"""Deterministic, named random-number streams.

Every stochastic component of the simulation (latency sampling, coldstart
jitter, placement noise) draws from its own named stream so that adding a
new consumer never perturbs the draws seen by existing ones. Streams are
derived from a single root seed via ``numpy``'s ``SeedSequence`` spawning,
keyed by a stable hash of the stream name.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _digest(name: str) -> int:
    """Stable 64-bit integer digest of a stream name."""
    raw = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "little")


class RandomStreams:
    """Factory of independent, reproducible ``numpy`` generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identical sequence.
        """
        if name not in self._streams:
            sequence = np.random.SeedSequence([self._seed, _digest(name)])
            self._streams[name] = np.random.default_rng(sequence)
        return self._streams[name]
