"""`repro.lint` — determinism & architecture static analysis.

The whole reproduction rests on one invariant: seeded, byte-identical
determinism on a virtual clock. The golden TPC-H Q6 trace, the chaos
resilience reports, and every committed benchmark artifact are pinned
on it. This package enforces the invariant *mechanically*, at lint
time, with an AST-based checker framework (stdlib ``ast``, no
dependencies beyond :func:`repro.telemetry.export.canonical_json` for
byte-stable JSON output):

* **DET001** — wall-clock reads (``time.time``, ``datetime.now``, …);
* **DET002** — unseeded global randomness (``random.*``,
  ``numpy.random`` module-level state) outside :mod:`repro.sim.rng`;
* **DET003** — iterating sets (or materializing them into sequences)
  without ``sorted(...)``;
* **DET004** — ``id()``-based keys, ordering, or tie-breaking;
* **ARCH001** — the layer DAG of :mod:`repro.lint.layer_dag` (imports
  may only point at the same or a lower layer);
* **ARCH002** — canonical-JSON discipline: ``json.dump(s)`` only
  inside :mod:`repro.telemetry.export`.

On top of the per-module pass sits a two-phase **whole-program
analysis** (:mod:`repro.lint.project`): phase 1 distills every module
into an index (RNG provenance, global-mutation and resource sites,
call edges); phase 2 runs :class:`ProjectChecker`\\ s over the
stitched index:

* **DET005** — RNG seed provenance: generators drawn from outside the
  layer that constructed them; seeds derived from ``hash()``/``id()``
  or wall clocks;
* **CONC001** — run isolation: module globals mutated from function
  scope, i.e. state that survives into the next run in the same
  interpreter;
* **RES001** — spans/handles opened without a reaching settle call,
  with the obligation following returned resources into callers;
* **EXC001** — broad exception handlers that would silently mask
  injected chaos faults.

Findings carry ``path:line:col``, a check id, a severity, and a
message; a line comment ``# repro-lint: disable=DET001 <reason>``
suppresses them (the reason is mandatory — LNT001 flags bare
suppressions, LNT002 flags suppressions that no longer match
anything). ``repro lint`` is the CLI; ``repro lint --strict`` is the
CI gate; ``repro lint --self-test`` replays a bundled fixture bundle
of known violations so a checker can never silently go dead; ``repro
lint --sarif`` emits SARIF 2.1.0 for CI diff annotations; ``repro
lint --explain <ID>`` prints a checker's rationale with a bad/good
example. Output is byte-identical across runs and discovery orders.
See ``docs/static_analysis.md``.
"""

from repro.lint.arch import CanonicalJsonChecker, LayerChecker
from repro.lint.baseline import Baseline, diff_against_baseline
from repro.lint.concurrency import SharedStateChecker
from repro.lint.determinism import (
    IdentityOrderChecker,
    OrderingChecker,
    UnseededRandomChecker,
    WallClockChecker,
)
from repro.lint.framework import (
    Checker,
    Finding,
    SourceModule,
    analyze_module,
    apply_suppressions,
    lint_modules,
    parse_suppressions,
)
from repro.lint.lifecycle import (
    ResourceLifecycleChecker,
    SwallowedExceptionChecker,
)
from repro.lint.project import (
    ModuleIndexer,
    ProjectChecker,
    ProjectIndex,
    build_module_index,
    lint_bundle,
    lint_tree,
)
from repro.lint.provenance import SeedProvenanceChecker


def all_checkers() -> list[Checker]:
    """Every shipped per-module checker, in check-id order."""
    return sorted([
        WallClockChecker(),
        UnseededRandomChecker(),
        OrderingChecker(),
        IdentityOrderChecker(),
        LayerChecker(),
        CanonicalJsonChecker(),
        SwallowedExceptionChecker(),
    ], key=lambda checker: checker.id)


def all_project_checkers() -> list[ProjectChecker]:
    """Every shipped whole-program checker, in check-id order."""
    return sorted([
        SeedProvenanceChecker(),
        SharedStateChecker(),
        ResourceLifecycleChecker(),
    ], key=lambda checker: checker.id)


__all__ = [
    "Baseline",
    "CanonicalJsonChecker",
    "Checker",
    "Finding",
    "IdentityOrderChecker",
    "LayerChecker",
    "ModuleIndexer",
    "OrderingChecker",
    "ProjectChecker",
    "ProjectIndex",
    "ResourceLifecycleChecker",
    "SeedProvenanceChecker",
    "SharedStateChecker",
    "SourceModule",
    "SwallowedExceptionChecker",
    "UnseededRandomChecker",
    "WallClockChecker",
    "all_checkers",
    "all_project_checkers",
    "analyze_module",
    "apply_suppressions",
    "build_module_index",
    "diff_against_baseline",
    "lint_bundle",
    "lint_modules",
    "lint_tree",
    "parse_suppressions",
]
