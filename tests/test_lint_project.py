"""The checks that read a whole module, not one call: CONC001 and DET005,
and the byte-determinism property over module orderings."""

import textwrap
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.lint import all_checkers, lint_modules
from repro.lint.concurrency import SharedStateChecker
from repro.lint.framework import SourceModule
from repro.lint.provenance import SeedProvenanceChecker
from tests.lint_fixture import FIXTURE, FIXTURE_MODULE

REPO_ROOT = Path(__file__).resolve().parent.parent


def mod(module, source):
    return SourceModule(path=f"<t:{module}>",
                        source=textwrap.dedent(source), module=module)


def checks(findings):
    return [f.check for f in findings]


UNSTABLE_SEEDS = """\
    import numpy as np
    import random

    def f(x, name):
        a = np.random.default_rng(id(x))
        b = random.Random(hash(name))
        c = np.random.default_rng(7)
        return a, b, c
"""


class TestSeedProvenance:
    def test_unstable_seed_flagged(self):
        findings = lint_modules([mod("repro.sim.seeds", UNSTABLE_SEEDS)],
                                [SeedProvenanceChecker()])
        assert checks(findings) == ["DET005", "DET005"]
        assert "id()" in findings[0].message
        assert "hash()" in findings[1].message


class TestSharedState:
    MUTATOR = """\
        REG = {}
        MODE = "idle"

        def put(k, v):
            REG[k] = v

        def set_mode(m):
            global MODE
            MODE = m
    """

    def test_function_scope_mutations_flagged(self):
        findings = lint_modules([mod("repro.sim.state", self.MUTATOR)],
                                [SharedStateChecker()])
        assert checks(findings) == ["CONC001", "CONC001"]
        assert "mutated in place" in findings[0].message
        assert "rebound" in findings[1].message

    def test_fires_with_no_import_path_to_sim_or_shard(self):
        # Run isolation is not a property of the DES packages: nothing
        # imports this module and it imports nothing.
        findings = lint_modules([mod("repro.formats.state", self.MUTATOR)],
                                [SharedStateChecker()])
        assert checks(findings) == ["CONC001", "CONC001"]

    def test_module_scope_initialisation_exempt(self):
        findings = lint_modules([mod("repro.formats.table", """\
            TABLE = {}
            TABLE["constant"] = 1
            TABLE.update(other=2)
            ORDER = []
            for name in ("a", "b"):
                ORDER.append(name)
        """)], [SharedStateChecker()])
        assert findings == []

    def test_suppression_covers_project_findings(self):
        src = ("REG = {}\n"
               "\n"
               "def put(k, v):\n"
               "    REG[k] = v"
               "  # repro-lint: disable=CONC001 import-time only\n")
        findings = lint_modules(
            [SourceModule(path="<t:sup>", source=src,
                          module="repro.sim.sup")],
            [SharedStateChecker()])
        # Suppressed with a reason: no CONC001, no LNT001/LNT002.
        assert findings == []


class TestEngineCacheRegression:
    """The PR-9 fix: no engine cache at module scope.

    Linting the *real* worker/plan sources must stay CONC001 clean —
    and putting a module cache back proves the checker is alive, so
    the clean result cannot be vacuous.
    """

    def _modules(self, extra=""):
        worker = (REPO_ROOT / "src/repro/engine/worker.py").read_text()
        plan = (REPO_ROOT / "src/repro/engine/plan.py").read_text()
        return [
            SourceModule(path="src/repro/engine/worker.py",
                         source=worker + extra,
                         module="repro.engine.worker"),
            SourceModule(path="src/repro/engine/plan.py", source=plan,
                         module="repro.engine.plan"),
        ]

    def test_runtime_owned_memos_are_clean(self):
        # Every checker runs so any suppression in the sources
        # registers as used (no LNT002 noise).
        findings = lint_modules(self._modules(), all_checkers())
        conc = [f for f in findings if f.check.startswith("CONC")]
        assert conc == []

    def test_reintroducing_a_module_cache_fires(self):
        regression = ("\n_CACHE = {}\n"
                      "def _memo(k, v):\n"
                      "    _CACHE[k] = v\n")
        findings = lint_modules(self._modules(extra=regression),
                                all_checkers())
        conc = [f for f in findings if f.check == "CONC001"]
        assert len(conc) == 1
        assert "_CACHE" in conc[0].message


def _modules():
    return [SourceModule(path="<lint-self-test>", source=FIXTURE,
                         module=FIXTURE_MODULE),
            mod("repro.sim.seeds", UNSTABLE_SEEDS),
            mod("repro.formats.state", TestSharedState.MUTATOR)]


class TestBundleDeterminism:
    """Findings are a pure function of the *set* of modules."""

    @given(order=st.permutations(range(3)))
    def test_order_invariant(self, order):
        baseline = lint_modules(_modules(), all_checkers())
        fresh = _modules()
        again = lint_modules([fresh[i] for i in order], all_checkers())
        assert [f.to_dict() for f in again] \
            == [f.to_dict() for f in baseline]
