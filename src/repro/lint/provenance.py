"""DET005 — RNG seed provenance, across module boundaries.

DET002 catches the *global* RNGs; this checker tracks the *local* ones.
A ``random.Random(seed)`` or ``numpy.random.default_rng(seed)`` object
is deterministic only relative to the component that owns its draw
sequence. Two provenance bugs survive DET002:

* **Cross-layer draws** — a generator constructed at module scope in
  layer A and drawn from in layer B couples the two layers' draw
  sequences: adding one draw in A perturbs every subsequent draw B
  sees, which is exactly the coupling named seeded streams
  (:mod:`repro.sim.rng`) exist to prevent.
* **Unstable derived seeds** — a seed derived from ``hash()`` (salted
  per process by PYTHONHASHSEED), ``id()`` (a memory address), or a
  wall clock yields a different stream every run. Derive child seeds
  from a stable content hash (``hashlib``, as ``repro.sim.rng._digest``
  does) or SeedSequence spawning.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.arch import layer_of
from repro.lint.framework import Finding
from repro.lint.project import ProjectChecker, ProjectIndex


class SeedProvenanceChecker(ProjectChecker):
    """DET005 — RNG objects drawn outside their layer; unstable seeds."""

    id = "DET005"
    title = "RNG seed provenance"
    severity = "error"
    rationale = (
        "A seeded generator is deterministic only relative to its "
        "owner's draw sequence. Drawing from another layer's generator "
        "couples the layers' sequences (any new draw upstream perturbs "
        "every draw downstream). Seeds derived from "
        "hash()/id()/wall clocks differ across processes and runs, so "
        "the 'same seed' never reproduces the same stream.")
    example_bad = (
        "# repro/engine/noise.py\n"
        "GEN = np.random.default_rng(7)\n"
        "# repro/serve/gateway.py\n"
        "from repro.engine.noise import GEN\n"
        "jitter = GEN.random()          # cross-layer draw\n"
        "rng = random.Random(hash(name))  # salted, differs per process\n")
    example_good = (
        "rng = sim.rng.stream('serve.gateway')   # named, layer-local\n"
        "seed = int.from_bytes(\n"
        "    hashlib.sha256(name.encode()).digest()[:8], 'little')\n")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for name in sorted(index.modules):
            module_index = index.modules[name]
            yield from self._unstable_seeds(module_index)
            yield from self._cross_layer_draws(index, module_index)

    def _unstable_seeds(self, module_index: dict) -> Iterator[Finding]:
        for site in module_index["unstable_seeds"]:
            ctor = site["ctor"].rsplit(".", 1)[-1]
            yield self.finding(
                module_index, site,
                f"seed for {ctor}() is derived from {site['via']} — "
                f"unstable across runs/processes; derive it from a "
                f"stable content hash (hashlib, sim.rng style) instead")

    def _cross_layer_draws(self, index: ProjectIndex,
                           module_index: dict) -> Iterator[Finding]:
        drawing_module = module_index["module"]
        drawing_layer = layer_of(drawing_module) if drawing_module else None
        for draw in module_index["rng_draws"]:
            owner, symbol = index.split_symbol(draw["target"])
            if owner is None or owner == drawing_module:
                continue
            owner_index = index.modules[owner]
            root = symbol.split(".")[0]
            if root not in owner_index["rng_globals"]:
                continue
            owner_layer = layer_of(owner)
            if owner_layer is None or owner_layer == drawing_layer:
                continue
            yield self.finding(
                module_index, draw,
                f"RNG '{owner}.{root}' is constructed in layer "
                f"'{owner_layer}' but '.{draw['method']}()' draws from "
                f"it in layer '{drawing_layer}'; draw sequences must "
                f"stay layer-local — take a named sim.rng stream or a "
                f"generator passed in explicitly")
