"""`repro.lint` — determinism & architecture static analysis.

The whole reproduction rests on one invariant: seeded, byte-identical
determinism on a virtual clock. The golden TPC-H Q6 trace, the chaos
resilience reports, and every committed benchmark artifact are pinned
on it, and those pins and the tests catch most ways to break it. This
package keeps the checks for the bugs they miss (the bug-planting
table in ``docs/static_analysis.md`` names one per check), in one
per-module AST pass (stdlib ``ast``, no dependencies beyond
:func:`repro.telemetry.export.canonical_json` for byte-stable JSON
output):

* **DET001** — wall-clock reads (``time.time``, ``datetime.now``, …);
* **DET004** — ``id()``-based keys, ordering, or tie-breaking;
* **DET005** — RNGs seeded from ``hash()``, ``id()`` or a wall clock;
* **ARCH001** — the layer DAG of :mod:`repro.lint.layer_dag` (imports
  may only point at the same or a lower layer).

Findings carry ``path:line:col``, a check id and a message; a line
comment ``# repro-lint: disable=DET001 <reason>`` suppresses them (the
reason is mandatory — LNT001 flags bare suppressions, LNT002 flags
suppressions that no longer match anything). ``repro lint`` is the CLI
and the CI gate: it fails on any finding. A tier-1 self-test replays a
fixture of known violations so a checker can never silently go dead.
Output is byte-identical across runs and discovery orders. See
``docs/static_analysis.md``.
"""

from repro.lint.arch import LayerChecker
from repro.lint.determinism import (
    IdentityOrderChecker,
    SeedProvenanceChecker,
    WallClockChecker,
)
from repro.lint.framework import (
    Checker,
    Finding,
    SourceModule,
    lint_modules,
    lint_tree,
    parse_suppressions,
)


def all_checkers() -> list[Checker]:
    """Every shipped checker, in check-id order."""
    return sorted([
        WallClockChecker(),
        IdentityOrderChecker(),
        SeedProvenanceChecker(),
        LayerChecker(),
    ], key=lambda checker: checker.id)


__all__ = [
    "Checker",
    "Finding",
    "IdentityOrderChecker",
    "LayerChecker",
    "SeedProvenanceChecker",
    "SourceModule",
    "WallClockChecker",
    "all_checkers",
    "lint_modules",
    "lint_tree",
    "parse_suppressions",
]
