"""`repro lint --self-test`: prove every checker still fires.

A checker that silently stops matching is worse than no checker — the
gate keeps passing while the invariant rots. The self-test runs the
full checker set (per-module *and* whole-program) against a bundled
fixture bundle of known violations and compares the findings against
expectations *written inline in the fixtures themselves*
(``# expect: DET001`` on the offending line, or ``# expect-next:
LNT001`` on the line before when the offending line already carries a
suppression comment). Any drift — a missing finding, an extra finding,
a moved line — fails the self-test.

The bundle is multi-module on purpose: DET005's cross-layer draw and
RES001's caller-leak only exist *between* modules, so a single-file
fixture could never prove the whole-program phase is alive.
"""

from __future__ import annotations

import re
from collections import Counter

from repro.lint.framework import SourceModule

#: Expectation markers inside the fixtures.
_MARKER_RE = re.compile(r"#\s*expect(-next)?:\s*([A-Z0-9_]+(?:,[A-Z0-9_]+)*)")

#: The original fixture pretends to live in the ``sim`` layer so that
#: upward imports (telemetry, engine) violate ARCH001.
FIXTURE = '''\
"""Known-violation fixture; compiled by the self-test, never imported."""
import json
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


def unseeded(n):
    jitter = random.random()  # expect: DET002
    noise = np.random.rand(n)  # expect: DET002
    good = np.random.default_rng(7).random()
    return jitter, noise, good


def ordering(events):
    pending = {event.key for event in events}
    for key in pending:  # expect: DET003
        print(key)
    for event in set(events):  # expect: DET003
        print(event)
    ordered = sorted(set(events))
    return ordered, list({1, 2, 3})  # expect: DET003


def tiebreak(items):
    items.sort(key=id)  # expect: DET004
    return {id(item): item for item in items}  # expect: DET004


def export(payload):
    return json.dumps(payload)  # expect: ARCH002


def suppressed_export(payload):
    # A well-formed suppression: check ids, then a mandatory reason.
    return json.dumps(payload)  # repro-lint: disable=ARCH002 fixture: compact wire format


def bare_suppression(payload):
    # expect-next: LNT001
    return json.dumps(payload)  # repro-lint: disable=ARCH002


# expect-next: LNT002
def stale():  # repro-lint: disable=DET001 the wall-clock call below was removed
    return 0


# -- run isolation: mutable module state (CONC001) ----------------------------

REGISTRY: dict = {}
_MODE = "idle"
_IMPORT_TIME_TABLE: dict = {}
_IMPORT_TIME_TABLE["constant"] = 1  # module scope: built once at import


def register(key, value):
    REGISTRY[key] = value  # expect: CONC001


def set_mode(mode):
    global _MODE
    _MODE = mode  # expect: CONC001


def local_state_is_fine(items):
    cache = {}
    for item in items:
        cache[item] = item
    return cache


class ShardState:
    def __init__(self):
        self._tenants = {}

    def admit(self, tenant):
        self._tenants[tenant] = tenant
        REGISTRY[tenant] = tenant  # expect: CONC001

    def admit_local_only(self, tenant):
        self._tenants[tenant] = tenant


# -- resource lifecycle (RES001) ----------------------------------------------


def span_leak(recorder, env):
    span = recorder.start_span("work", env.now)  # expect: RES001
    return 1


def span_error_path_only(recorder, env, step):
    span = recorder.start_span("work", env.now)  # expect: RES001
    try:
        step()
    except RuntimeError:
        span.finish(env.now)
        raise
    return 2


def span_tidy(recorder, env, step):
    span = recorder.start_span("work", env.now)
    try:
        step()
    finally:
        span.finish(env.now)
    return 3


def span_handed_off(recorder, env, sink):
    span = recorder.start_span("work", env.now)
    sink(span)  # new owner: the obligation is theirs now
    return 4


def _open_helper(recorder, env):
    span = recorder.start_span("helper", env.now)
    return span


def caller_leak(recorder, env):
    span = _open_helper(recorder, env)  # expect: RES001
    return 0


def caller_tidy(recorder, env):
    span = _open_helper(recorder, env)
    span.finish(env.now)
    return 0


# -- swallowed exceptions (EXC001) --------------------------------------------


def swallow(step):
    try:
        step()
    except Exception:  # expect: EXC001
        pass


def swallow_bare(step):
    try:
        step()
    except:  # expect: EXC001
        ...


def narrow_is_fine(step):
    try:
        step()
    except ValueError:
        pass


def broad_but_handled(step, log):
    try:
        step()
    except Exception as error:
        log(error)
        raise
'''

#: RNG provenance fixture: generators owned by the sim layer.
FIXTURE_RNG = '''\
"""RNG-owner fixture for DET005; compiled, never imported."""
import random

import numpy as np

SHARED_GEN = np.random.default_rng(7)


def local_draws(n):
    rng = np.random.default_rng(n)
    return rng.random()


def same_module_draw():
    return SHARED_GEN.random()


def unstable(payload, name):
    a = np.random.default_rng(id(payload))  # expect: DET004,DET005
    b = random.Random(hash(name))  # expect: DET005
    return a, b
'''

#: Cross-layer fixture: engine code drawing from the sim layer's RNG.
FIXTURE_CROSS = '''\
"""Cross-layer-draw fixture for DET005; compiled, never imported."""
from repro.sim.lint_fixture_rng import SHARED_GEN


def jitter():
    return SHARED_GEN.random()  # expect: DET005


def stable_derived_seed(name):
    import hashlib
    raw = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "little")
'''

#: The bundle: dotted module name -> fixture source.
FIXTURES: dict[str, str] = {
    "repro.sim.lint_fixture": FIXTURE,
    "repro.sim.lint_fixture_rng": FIXTURE_RNG,
    "repro.engine.lint_fixture": FIXTURE_CROSS,
}


def fixture_path(module: str) -> str:
    return f"<lint-self-test:{module}>"


def expected_findings() -> Counter:
    """Inline ``expect`` markers as a ``(path, line, check)`` multiset."""
    expected: Counter = Counter()
    for module in sorted(FIXTURES):
        path = fixture_path(module)
        for lineno, text in enumerate(FIXTURES[module].splitlines(),
                                      start=1):
            match = _MARKER_RE.search(text)
            if match is None:
                continue
            target = lineno + 1 if match.group(1) else lineno
            for check in match.group(2).split(","):
                expected[(path, target, check)] += 1
    return expected


def run_self_test() -> tuple[bool, list[str]]:
    """Lint the bundle; return (ok, human-readable report lines)."""
    from repro.lint import all_checkers, all_project_checkers, lint_bundle

    modules = [SourceModule(path=fixture_path(module),
                            source=FIXTURES[module], module=module)
               for module in sorted(FIXTURES)]
    findings = lint_bundle(modules, all_checkers(),
                           all_project_checkers())
    actual = Counter((f.path, f.line, f.check) for f in findings)
    expected = expected_findings()
    lines = []
    for path, line, check in sorted(expected - actual):
        lines.append(f"MISSING: expected {check} at {path}:{line} "
                     f"(checker gone dead?)")
    for path, line, check in sorted(actual - expected):
        message = next(f.message for f in findings
                       if (f.path, f.line, f.check) == (path, line, check))
        lines.append(f"UNEXPECTED: {check} at {path}:{line}: {message}")
    ok = not lines
    checks = sorted({check for _, _, check in expected})
    lines.append(f"self-test {'OK' if ok else 'FAIL'}: "
                 f"{sum(expected.values())} expected findings across "
                 f"{len(checks)} checks in {len(FIXTURES)} fixture "
                 f"module(s) ({', '.join(checks)})")
    return ok, lines
