"""The linter's self-test: prove every checker still fires.

A checker that silently stops matching is worse than no checker — the
gate keeps passing while the invariant rots. The self-test runs the
full checker set against a fixture module of known violations
and compares the findings against expectations *written inline in the
fixture itself* (``# expect: DET001`` on the offending line, or
``# expect-next: LNT001`` on the line before when the offending line
already carries a suppression comment). Any drift — a missing finding,
an extra finding, a moved line — fails the self-test.
"""

from __future__ import annotations

import re
from collections import Counter

from repro.lint.framework import SourceModule

#: Expectation markers inside the fixture.
_MARKER_RE = re.compile(r"#\s*expect(-next)?:\s*([A-Z0-9_]+(?:,[A-Z0-9_]+)*)")

#: The fixture pretends to live in the ``sim`` layer so that upward
#: imports (telemetry, engine) violate ARCH001.
FIXTURE_MODULE = "repro.sim.lint_fixture"
FIXTURE = '''\
"""Known-violation fixture; compiled by the self-test, never imported."""
import random
import time
from datetime import datetime

import numpy as np

from repro.telemetry.export import canonical_json  # expect: ARCH001
from repro.engine.plan import PhysicalPlan  # expect: ARCH001


def wall_clock():
    started = time.time()  # expect: DET001
    time.sleep(0.01)  # expect: DET001
    return started, datetime.now()  # expect: DET001


def tiebreak(items):
    items.sort(key=id)  # expect: DET004
    return {id(item): item for item in items}  # expect: DET004


def suppressed_stamp():
    # A well-formed suppression: check ids, then a mandatory reason.
    return time.time()  # repro-lint: disable=DET001 fixture: host timing only


def bare_suppression():
    # expect-next: LNT001
    return time.time()  # repro-lint: disable=DET001


# expect-next: LNT002
def stale():  # repro-lint: disable=DET001 the wall-clock call below was removed
    return 0


# -- RNG seed provenance (DET005) ---------------------------------------------


def local_draws(n):
    rng = np.random.default_rng(n)
    return rng.random()


def unstable(payload, name):
    from repro.sim import RandomStreams
    a = np.random.default_rng(id(payload))  # expect: DET004,DET005
    b = random.Random(hash(name))  # expect: DET005
    c = RandomStreams(hash(name) & 0xFFFFFFFF)  # expect: DET005
    return a, b, c


def stable_derived_seed(name):
    import hashlib
    raw = hashlib.sha256(name.encode("utf-8")).digest()
    return random.Random(int.from_bytes(raw[:8], "little"))
'''


def expected_findings() -> Counter:
    """Inline ``expect`` markers as a ``(line, check)`` multiset."""
    expected: Counter = Counter()
    for lineno, text in enumerate(FIXTURE.splitlines(), start=1):
        match = _MARKER_RE.search(text)
        if match is None:
            continue
        target = lineno + 1 if match.group(1) else lineno
        for check in match.group(2).split(","):
            expected[(target, check)] += 1
    return expected


def run_self_test() -> tuple[bool, list[str]]:
    """Lint the fixture; return (ok, human-readable report lines)."""
    from repro.lint import all_checkers, lint_modules

    findings = lint_modules([SourceModule(path="<lint-self-test>",
                                          source=FIXTURE,
                                          module=FIXTURE_MODULE)],
                            all_checkers())
    actual = Counter((f.line, f.check) for f in findings)
    expected = expected_findings()
    lines = []
    for line, check in sorted(expected - actual):
        lines.append(f"MISSING: expected {check} at fixture line {line} "
                     f"(checker gone dead?)")
    for line, check in sorted(actual - expected):
        message = next(f.message for f in findings
                       if (f.line, f.check) == (line, check))
        lines.append(f"UNEXPECTED: {check} at fixture line {line}: "
                     f"{message}")
    ok = not lines
    checks = sorted({check for _, check in expected})
    lines.append(f"self-test {'OK' if ok else 'FAIL'}: "
                 f"{sum(expected.values())} expected findings across "
                 f"{len(checks)} checks ({', '.join(checks)})")
    return ok, lines
