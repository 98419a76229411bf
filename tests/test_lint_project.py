"""DET005, the check that reads a call's arguments, and the
byte-determinism property over module orderings."""

import textwrap

from hypothesis import given
from hypothesis import strategies as st

from repro.lint import all_checkers, lint_modules
from repro.lint.framework import SourceModule
from repro.lint.determinism import SeedProvenanceChecker
from tests.lint_fixture import FIXTURE, FIXTURE_MODULE


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


#: A third module for the ordering property: a wall-clock read and an
#: address-ordered sort.
HOST_STATE = """\
    import time

    def stamp(items):
        items.sort(key=id)
        return time.time()
"""


def _modules():
    return [SourceModule(path="<lint-self-test>", source=FIXTURE,
                         module=FIXTURE_MODULE),
            mod("repro.sim.seeds", UNSTABLE_SEEDS),
            mod("repro.formats.state", HOST_STATE)]


class TestBundleDeterminism:
    """Findings are a pure function of the *set* of modules."""

    @given(order=st.permutations(range(3)))
    def test_order_invariant(self, order):
        baseline = lint_modules(_modules(), all_checkers())
        fresh = _modules()
        again = lint_modules([fresh[i] for i in order], all_checkers())
        assert again == baseline
