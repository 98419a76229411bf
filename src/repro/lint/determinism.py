"""DET001, DET004, DET005: the determinism checkers.

Everything in the simulation must be a pure function of the seed and
the configuration. The tests and the byte-pinned artifacts catch most
ways host entropy leaks in; these three cover what they miss (the
bug-planting table in ``docs/static_analysis.md``): a wall-clock read
whose effect depends on host speed, an order taken from memory
addresses that no pinned output reads yet, and an RNG seeded from a
value that differs per process.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.framework import Checker, Finding, SourceModule

# -- dotted-name resolution ---------------------------------------------------


def import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map names bound by imports to the dotted origin they denote.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``.
    Only import-bound names are mapped, so attribute chains rooted at
    local variables never resolve (and never false-positive).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(node: ast.expr, aliases: dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.rand`` → ``numpy.random.rand`` (or ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    parts.append(aliases[node.id])
    return ".".join(reversed(parts))


# -- DET001: wall clocks ------------------------------------------------------

#: Real-time sources; the simulation's only clock is ``Environment.now``.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.sleep",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
})


class WallClockChecker(Checker):
    """DET001 — wall-clock and OS-timer calls."""

    id = "DET001"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, aliases)
            if dotted in WALL_CLOCK_CALLS:
                yield module.finding(
                    node, self.id,
                    f"wall-clock call '{dotted}()' breaks virtual-clock "
                    f"determinism; use Environment.now / env.timeout()")


# -- DET004: identity-based ordering ------------------------------------------


class IdentityOrderChecker(Checker):
    """DET004 — ``id()`` keys/ordering (memory addresses vary per run)."""

    id = "DET004"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id == "id" \
                        and len(node.args) == 1:
                    yield module.finding(
                        node, self.id,
                        "id() yields a memory address — nondeterministic "
                        "across runs; key/order by a stable sequence number")
                for keyword in node.keywords:
                    if keyword.arg == "key" \
                            and isinstance(keyword.value, ast.Name) \
                            and keyword.value.id == "id":
                        yield module.finding(
                            keyword.value, self.id,
                            "key=id orders by memory address — "
                            "nondeterministic across runs; use a stable "
                            "attribute as the sort key")


# -- DET005: RNG seed provenance ----------------------------------------------
#
# A ``random.Random(seed)`` or ``numpy.random.default_rng(seed)`` object
# is deterministic only if its seed is: a seed derived from ``hash()``
# (salted per process by PYTHONHASHSEED), ``id()`` (a memory address) or
# a wall clock yields a different stream every run. Derive child seeds
# from a stable content hash (``hashlib``, as ``repro.sim.rng._digest``
# does) or SeedSequence spawning.

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
