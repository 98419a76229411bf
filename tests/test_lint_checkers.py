"""Per-checker unit tests: positive and negative cases on snippets."""

import textwrap

from repro.lint import all_checkers, lint_modules
from repro.lint.framework import SourceModule


def lint_source(source: str, module: str = "repro.sim.snippet",
                check: str = None) -> list:
    """Lint one snippet; optionally filter findings to one check id."""
    mod = SourceModule(path="<snippet>", source=textwrap.dedent(source),
                       module=module)
    findings = lint_modules([mod], all_checkers())
    if check is not None:
        findings = [f for f in findings if f.check == check]
    return findings


def checks(source: str, **kwargs) -> list[str]:
    return [f.check for f in lint_source(source, **kwargs)]


class TestWallClock:
    def test_time_module_calls_flagged(self):
        src = """\
        import time

        def f():
            a = time.time()
            time.sleep(0.5)
            return a, time.monotonic(), time.perf_counter()
        """
        assert checks(src, check="DET001") == ["DET001"] * 4

    def test_from_import_and_alias(self):
        src = """\
        from time import time
        import time as t

        def f():
            return time() + t.time()
        """
        assert checks(src, check="DET001") == ["DET001"] * 2

    def test_datetime_now_and_today(self):
        src = """\
        from datetime import datetime, date

        def f():
            return datetime.now(), datetime.utcnow(), date.today()
        """
        assert checks(src, check="DET001") == ["DET001"] * 3

    def test_virtual_clock_and_timedelta_ok(self):
        src = """\
        import datetime

        def f(env):
            span = datetime.timedelta(days=3)
            return env.now, env.timeout(1.0), span
        """
        assert checks(src, check="DET001") == []

    def test_local_attribute_chains_not_resolved(self):
        # `self.time.time()` must not false-positive: the chain is not
        # rooted at an import-bound name.
        src = """\
        def f(self):
            return self.time.time()
        """
        assert checks(src, check="DET001") == []


class TestIdentityOrder:
    def test_id_call_flagged(self):
        assert checks("def f(x):\n    return {id(x): x}\n",
                      check="DET004") == ["DET004"]

    def test_key_id_flagged(self):
        assert checks("def f(xs):\n    xs.sort(key=id)\n",
                      check="DET004") == ["DET004"]

    def test_other_keys_ok(self):
        src = "def f(xs):\n    return sorted(xs, key=len)\n"
        assert checks(src, check="DET004") == []


class TestLayerContract:
    def test_sim_may_not_import_telemetry(self):
        src = "from repro.telemetry.export import canonical_json\n"
        found = checks(src, module="repro.sim.kernel", check="ARCH001")
        assert found == ["ARCH001"]

    def test_sim_may_not_import_engine(self):
        src = "import repro.engine.plan\n"
        assert checks(src, module="repro.sim.kernel",
                      check="ARCH001") == ["ARCH001"]

    def test_core_may_not_import_serve_or_chaos(self):
        src = """\
        from repro.serve.gateway import QueryGateway
        from repro.chaos.plan import get_plan
        """
        assert checks(src, module="repro.core.driver",
                      check="ARCH001") == ["ARCH001"] * 2

    def test_downward_imports_ok(self):
        src = """\
        from repro import units
        from repro.sim import Environment
        from repro.network.fabric import Fabric
        from repro.telemetry.export import canonical_json
        """
        assert checks(src, module="repro.storage.base",
                      check="ARCH001") == []

    def test_facade_counts_as_highest_layer(self):
        # Importing the repro.serve facade pulls in serve.service, so it
        # is a service-layer edge even though serve.gateway would be ok.
        src = "from repro.serve import QueryGateway\n"
        assert checks(src, module="repro.workloads.arrivals",
                      check="ARCH001") == ["ARCH001"]
        assert checks("from repro.serve.gateway import QueryGateway\n",
                      module="repro.workloads.arrivals",
                      check="ARCH001") == []

    def test_deferred_function_level_import_still_checked(self):
        src = """\
        def f():
            from repro.engine.plan import PhysicalPlan
            return PhysicalPlan
        """
        assert checks(src, module="repro.sim.events",
                      check="ARCH001") == ["ARCH001"]

    def test_relative_imports_resolved(self):
        ok = "from .faults import FaultSpec\n"
        assert checks(ok, module="repro.chaos.plan", check="ARCH001") == []
        bad = "from ..engine import plan\n"
        assert checks(bad, module="repro.sim.events",
                      check="ARCH001") == ["ARCH001"]

    def test_unassigned_module_reported(self):
        assert checks("x = 1\n", module="repro.newpkg.thing",
                      check="ARCH001") == ["ARCH001"]

    def test_non_repro_modules_skipped(self):
        assert checks("import os\n", module=None, check="ARCH001") == []
