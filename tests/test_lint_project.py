"""Whole-program lint: the project checkers and the byte-determinism
property over bundle orderings."""

import textwrap
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.lint import (
    all_checkers,
    all_project_checkers,
    lint_bundle,
)
from repro.lint.concurrency import SharedStateChecker
from repro.lint.framework import SourceModule
from repro.lint.lifecycle import (
    ResourceLifecycleChecker,
    SwallowedExceptionChecker,
)
from repro.lint.provenance import SeedProvenanceChecker
from repro.lint.selftest import FIXTURES, fixture_path

REPO_ROOT = Path(__file__).resolve().parent.parent


def mod(module, source):
    return SourceModule(path=f"<t:{module}>",
                        source=textwrap.dedent(source), module=module)


def checks(findings):
    return [f.check for f in findings]


class TestSeedProvenance:
    OWNER = """\
        import numpy as np
        GEN = np.random.default_rng(7)
    """

    def test_cross_layer_draw_flagged(self):
        bundle = [
            mod("repro.sim.owner_mod", self.OWNER),
            mod("repro.engine.drawer", """\
                from repro.sim.owner_mod import GEN

                def f():
                    return GEN.random()
            """),
        ]
        findings = lint_bundle(bundle, [], [SeedProvenanceChecker()])
        assert checks(findings) == ["DET005"]
        assert findings[0].path == "<t:repro.engine.drawer>"
        assert "repro.sim.owner_mod" in findings[0].message

    def test_same_layer_draw_ok(self):
        bundle = [
            mod("repro.sim.owner_mod", self.OWNER),
            mod("repro.sim.peer", """\
                from repro.sim.owner_mod import GEN

                def f():
                    return GEN.random()
            """),
        ]
        assert lint_bundle(bundle, [], [SeedProvenanceChecker()]) == []

    def test_unstable_seed_flagged(self):
        bundle = [mod("repro.sim.seeds", """\
            import numpy as np
            import random

            def f(x, name):
                a = np.random.default_rng(id(x))
                b = random.Random(hash(name))
                c = np.random.default_rng(7)
                return a, b, c
        """)]
        findings = lint_bundle(bundle, [], [SeedProvenanceChecker()])
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
        findings = lint_bundle([mod("repro.sim.state", self.MUTATOR)],
                               [], [SharedStateChecker()])
        assert checks(findings) == ["CONC001", "CONC001"]
        assert "mutated in place" in findings[0].message
        assert "rebound" in findings[1].message

    def test_fires_with_no_import_path_to_sim_or_shard(self):
        # Run isolation is not a property of the DES packages: nothing
        # imports this module and it imports nothing.
        findings = lint_bundle([mod("repro.formats.state", self.MUTATOR)],
                               [], [SharedStateChecker()])
        assert checks(findings) == ["CONC001", "CONC001"]

    def test_module_scope_initialisation_exempt(self):
        findings = lint_bundle([mod("repro.formats.table", """\
            TABLE = {}
            TABLE["constant"] = 1
            TABLE.update(other=2)
            ORDER = []
            for name in ("a", "b"):
                ORDER.append(name)
        """)], [], [SharedStateChecker()])
        assert findings == []

    def test_suppression_covers_project_findings(self):
        src = ("REG = {}\n"
               "\n"
               "def put(k, v):\n"
               "    REG[k] = v"
               "  # repro-lint: disable=CONC001 import-time only\n")
        findings = lint_bundle(
            [SourceModule(path="<t:sup>", source=src,
                          module="repro.sim.sup")],
            [], [SharedStateChecker()])
        # Suppressed with a reason: no CONC001, no LNT001/LNT002.
        assert findings == []


class TestResourceLifecycle:
    def test_leaked_span_flagged(self):
        findings = lint_bundle([mod("repro.sim.spans", """\
            def leak(rec, env):
                s = rec.start_span("w", env.now)
                return 1
        """)], [], [ResourceLifecycleChecker()])
        assert checks(findings) == ["RES001"]
        assert "no path settles it" in findings[0].message

    def test_finally_settles(self):
        findings = lint_bundle([mod("repro.sim.spans_ok", """\
            def tidy(rec, env, step):
                s = rec.start_span("w", env.now)
                try:
                    step()
                finally:
                    s.finish(env.now)
                return 1
        """)], [], [ResourceLifecycleChecker()])
        assert findings == []

    def test_except_only_settle_flagged(self):
        findings = lint_bundle([mod("repro.sim.spans_err", """\
            def error_path(rec, env, step):
                s = rec.start_span("w", env.now)
                try:
                    step()
                except RuntimeError:
                    s.finish(env.now)
                    raise
                return 1
        """)], [], [ResourceLifecycleChecker()])
        assert checks(findings) == ["RES001"]
        assert "except handler" in findings[0].message

    def test_cross_module_caller_leak(self):
        bundle = [
            mod("repro.sim.span_helper", """\
                def open_helper(rec, env):
                    s = rec.start_span("h", env.now)
                    return s
            """),
            mod("repro.sim.span_caller", """\
                from repro.sim.span_helper import open_helper

                def caller(rec, env):
                    s = open_helper(rec, env)
                    return 0
            """),
        ]
        findings = lint_bundle(bundle, [], [ResourceLifecycleChecker()])
        assert checks(findings) == ["RES001"]
        assert findings[0].path == "<t:repro.sim.span_caller>"
        assert "open_helper" in findings[0].message

    def test_resource_home_package_exempt(self):
        # The package that *implements* the span protocol opens spans
        # whose lifecycle is the caller's business, not its own.
        findings = lint_bundle([mod("repro.telemetry.impl", """\
            def record(rec, env):
                s = rec.start_span("w", env.now)
                return 1
        """)], [], [ResourceLifecycleChecker()])
        assert findings == []


class TestSwallowedExceptions:
    def test_broad_silent_handler_flagged(self):
        findings = lint_bundle([mod("repro.sim.swallow", """\
            def f(step):
                try:
                    step()
                except Exception:
                    pass
        """)], [SwallowedExceptionChecker()], [])
        assert checks(findings) == ["EXC001"]

    def test_narrow_or_handled_ok(self):
        findings = lint_bundle([mod("repro.sim.handled", """\
            def f(step, log):
                try:
                    step()
                except ValueError:
                    pass

            def g(step, log):
                try:
                    step()
                except Exception as e:
                    log(e)
                    raise
        """)], [SwallowedExceptionChecker()], [])
        assert findings == []


class TestEngineCacheRegression:
    """The PR-9 fix: no engine cache at module scope.

    Linting the *real* worker/plan sources must stay CONC001 clean —
    and putting a module cache back proves the checker is alive, so
    the clean result cannot be vacuous.
    """

    def _bundle(self, extra=""):
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
        # The module checkers ride along so any suppression in the
        # sources registers as used (no LNT002 noise).
        findings = lint_bundle(self._bundle(), all_checkers(),
                               [SharedStateChecker()])
        conc = [f for f in findings if f.check.startswith("CONC")]
        assert conc == []

    def test_reintroducing_a_module_cache_fires(self):
        regression = ("\n_CACHE = {}\n"
                      "def _memo(k, v):\n"
                      "    _CACHE[k] = v\n")
        findings = lint_bundle(self._bundle(extra=regression),
                               all_checkers(), [SharedStateChecker()])
        conc = [f for f in findings if f.check == "CONC001"]
        assert len(conc) == 1
        assert "_CACHE" in conc[0].message


def _selftest_modules():
    return [SourceModule(path=fixture_path(name), source=FIXTURES[name],
                         module=name)
            for name in sorted(FIXTURES)]


class TestBundleDeterminism:
    """Findings are a pure function of the *set* of modules."""

    @given(order=st.permutations(range(len(FIXTURES))))
    def test_order_invariant(self, order):
        modules = _selftest_modules()
        baseline = lint_bundle(modules, all_checkers(),
                               all_project_checkers())
        shuffled = [modules[i] for i in order]
        again = lint_bundle(shuffled, all_checkers(),
                            all_project_checkers())
        assert [f.to_dict() for f in again] \
            == [f.to_dict() for f in baseline]
