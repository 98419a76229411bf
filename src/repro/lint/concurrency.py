"""CONC001 — run isolation: no state survives a run in a module global.

The repo is one single-process deterministic program, and its gates
lean on runs being independent of each other inside one interpreter:
the ledger asserts that k repeats of a workload are bit-identical,
every hypothesis property runs its body hundreds of times, and tier-1
runs a thousand tests in one process. A module global written from
function scope is state the *next* run inherits — a memo that answers
from the previous run's inputs, a counter that never resets, a registry
that keeps growing. PR 9's worker ``_SPEC_CACHE`` was that bug: a parse
memo at module scope, so what one query cached changed what the next
one did. State a run mutates belongs on an object the run owns
(runtime, environment, router), so a fresh run starts from nothing.

The check runs over every module. Module-scope mutations (building a
constant table at import time) are exempt — imports happen once, before
any run exists; state that is process-wide on purpose takes a reasoned
suppression.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.framework import Finding
from repro.lint.project import ProjectChecker, ProjectIndex


class SharedStateChecker(ProjectChecker):
    """CONC001 — module globals mutated from function scope."""

    id = "CONC001"
    title = "run isolation: mutable module state"
    severity = "warning"
    rationale = (
        "A module global written from function scope outlives the run "
        "that wrote it: the next run in the same interpreter (a ledger "
        "repeat, a hypothesis example, the next test) starts from the "
        "previous one's leftovers, so 'same seed, same outcome' holds "
        "only for the first. State a run mutates must live on an "
        "object the run owns (runtime, environment, router) so every "
        "run gets its own.")
    example_bad = (
        "_FOOTERS: dict[str, FileMetadata] = {}\n"
        "def read_footer(engine, key, data):\n"
        "    _FOOTERS[key] = parse(data)   # survives into the next run\n")
    example_good = (
        "class SkyriseEngine:\n"
        "    def __init__(self):\n"
        "        self.columnar_cache = ColumnarCache()\n"
        "def read_footer(engine, key, data):\n"
        "    return engine.columnar_cache.metadata(key, data)  # run-owned\n")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for name in sorted(index.modules):
            module_index = index.modules[name]
            for site in module_index["global_mutations"]:
                what = ("rebound" if site["kind"] == "rebind"
                        else "mutated in place")
                yield self.finding(
                    module_index, site,
                    f"module-global '{site['name']}' is {what} in "
                    f"'{site['scope']}' — it outlives the run that "
                    f"wrote it, so the next run in this interpreter "
                    f"inherits it; move the state onto a run-owned "
                    f"object")
