"""DET005 — RNG seeds that differ from run to run.

DET002 catches the *global* RNGs; this checker looks at the seeds of
the *local* ones. A ``random.Random(seed)`` or
``numpy.random.default_rng(seed)`` object is deterministic only if its
seed is: a seed derived from ``hash()`` (salted per process by
PYTHONHASHSEED), ``id()`` (a memory address), or a wall clock yields a
different stream every run. Derive child seeds from a stable content
hash (``hashlib``, as ``repro.sim.rng._digest`` does) or SeedSequence
spawning.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.determinism import (
    WALL_CLOCK_CALLS,
    import_aliases,
    resolve_dotted,
)
from repro.lint.framework import Checker, Finding, SourceModule

#: Calls that construct a *local, seedable* RNG object; ``RandomStreams``
#: under both the names code imports it by.
RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "repro.sim.RandomStreams",
    "repro.sim.rng.RandomStreams",
})


def _unstable_source(node: ast.expr, aliases: dict[str, str]
                     ) -> Optional[str]:
    """The unstable call inside a seed expression, if any."""
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        if isinstance(child.func, ast.Name) and child.func.id in ("hash",
                                                                  "id"):
            return f"{child.func.id}()"
        dotted = resolve_dotted(child.func, aliases)
        if dotted in WALL_CLOCK_CALLS:
            return f"{dotted}()"
    return None


class SeedProvenanceChecker(Checker):
    """DET005 — RNGs seeded from ``hash()``, ``id()`` or a wall clock."""

    id = "DET005"
    title = "RNG seed provenance"
    rationale = (
        "A seeded generator reproduces its stream only if the seed "
        "reproduces. Seeds derived from hash()/id()/wall clocks differ "
        "across processes and runs, so the 'same seed' never gives the "
        "same stream.")
    example_bad = "rng = random.Random(hash(name))  # salted, differs per process\n"
    example_good = (
        "seed = int.from_bytes(\n"
        "    hashlib.sha256(name.encode()).digest()[:8], 'little')\n")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            ctor = resolve_dotted(node.func, aliases)
            if ctor not in RNG_CONSTRUCTORS:
                continue
            for expr in list(node.args) + [kw.value for kw in node.keywords]:
                via = _unstable_source(expr, aliases)
                if via is not None:
                    yield module.finding(
                        node, self.id,
                        f"seed for {ctor.rsplit('.', 1)[-1]}() is derived "
                        f"from {via} — unstable across runs/processes; "
                        f"derive it from a stable content hash (hashlib, "
                        f"sim.rng style) instead")
                    break
