"""End-to-end query execution: distributed engine vs reference executor."""

import math
import pickle

import numpy as np
import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultSpec
from repro.datagen import load_table, scaled_spec
from repro.engine import SkyriseEngine, coordinator
from repro.engine.coordinator import FragmentFailure, RecoveryConfig
from repro.engine.queries import (
    QUERY_BUILDERS,
    tpch_q1,
    tpch_q6,
    tpch_q12,
    tpcxbb_q3,
)
from repro.engine.reference import run_reference, table_batches_from_spec
from repro.faas import LambdaPlatform
from repro.iaas import Ec2Fleet, VmShim
from repro.network import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage import S3Standard


def build_stack(tables, backend="faas", seed=5, recovery=None):
    """Simulated cloud + engine with the given scaled dataset specs."""
    env = Environment()
    fabric = Fabric(env)
    rng = RandomStreams(seed=seed)
    s3 = S3Standard(env, fabric, rng)
    specs = {}
    for name, partitions, rows in tables:
        specs[name] = scaled_spec(name, partitions, rows)
    metadata = {}
    for name, spec in specs.items():
        proc = env.process(load_table(env, s3, spec))
        env.run(until=proc)
        metadata[name] = proc.value
    if backend == "faas":
        platform = LambdaPlatform(env, fabric, rng, account_quota=10_000)
    else:
        fleet = Ec2Fleet(env, fabric, rng)
        proc = env.process(fleet.provision("c6g.xlarge", count=16))
        env.run(until=proc)
        platform = VmShim(env, proc.value, slots_per_vm=1)
    engine = SkyriseEngine(env, platform, storage={"s3-standard": s3},
                           recovery=recovery)
    for table_metadata in metadata.values():
        engine.register_table(table_metadata)
    engine.deploy()
    return env, engine, specs


def run_query(env, engine, plan):
    proc = env.process(engine.run_query(plan))
    env.run(until=proc)
    return proc.value


def reference_result(specs, plan):
    tables = table_batches_from_spec(specs.values())
    return run_reference(plan, tables)


class TestQ6:
    def setup_method(self):
        self.tables = [("lineitem", 6, 400)]

    def test_result_matches_reference(self):
        env, engine, specs = build_stack(self.tables)
        plan = tpch_q6()
        result = run_query(env, engine, plan)
        expected = reference_result(specs, tpch_q6())
        assert result.batch.num_rows == 1
        np.testing.assert_allclose(result.batch.column("revenue")[0],
                                   expected.column("revenue")[0], rtol=1e-9)

    def test_runtime_and_stats_populated(self):
        env, engine, specs = build_stack(self.tables)
        result = run_query(env, engine, tpch_q6())
        assert result.runtime > 0
        assert result.requests > 0
        assert result.cumulated_time > result.runtime / 2
        assert result.cost_cents > 0
        assert set(result.fragments) == {"scan", "final"}

    def test_burst_aware_fragment_sizing(self):
        """Scan fragments keep per-worker input near the burst budget."""
        env, engine, specs = build_stack(self.tables)
        result = run_query(env, engine, tpch_q6())
        scan_fragments = result.fragments["scan"]
        # 6 partitions x 182 MiB x ~29% projected width / 270 MiB target.
        assert 1 <= scan_fragments <= 6

    def test_explicit_fragment_override(self):
        env, engine, specs = build_stack(self.tables)
        result = run_query(env, engine, tpch_q6(scan_fragments=3))
        assert result.fragments["scan"] == 3


class TestQ1:
    def test_result_matches_reference(self):
        env, engine, specs = build_stack([("lineitem", 4, 500)])
        result = run_query(env, engine, tpch_q1())
        expected = reference_result(specs, tpch_q1())
        assert result.batch.num_rows == expected.num_rows
        got = result.batch.to_pydict()
        want = expected.to_pydict()
        assert got["l_returnflag"] == want["l_returnflag"]
        assert got["l_linestatus"] == want["l_linestatus"]
        np.testing.assert_allclose(got["sum_disc_price"],
                                   want["sum_disc_price"], rtol=1e-9)
        np.testing.assert_allclose(got["avg_disc"], want["avg_disc"],
                                   rtol=1e-9)
        assert got["count_order"] == want["count_order"]


class TestQ12:
    def make_tables(self):
        return [("lineitem", 6, 600), ("orders", 3, 1200)]

    def test_result_matches_reference(self):
        env, engine, specs = build_stack(self.make_tables())
        plan = tpch_q12(join_fragments=4)
        result = run_query(env, engine, plan)
        expected = reference_result(specs, tpch_q12(join_fragments=4))
        got = result.batch.to_pydict()
        want = expected.to_pydict()
        # The join must actually match rows (guards against disjoint
        # key domains making the comparison vacuous).
        assert result.batch.num_rows > 0
        assert sum(got["high_line_count"]) + sum(got["low_line_count"]) > 0
        assert got["l_shipmode"] == want["l_shipmode"]
        np.testing.assert_allclose(got["high_line_count"],
                                   want["high_line_count"])
        np.testing.assert_allclose(got["low_line_count"],
                                   want["low_line_count"])

    def test_shuffle_requests_scale_with_fragments(self):
        """Shuffle reads ~ producers x consumers (Section 4.4)."""
        env, engine, specs = build_stack(self.make_tables())
        small = run_query(env, engine, tpch_q12(join_fragments=2))
        env2, engine2, _ = build_stack(self.make_tables())
        large = run_query(env2, engine2, tpch_q12(join_fragments=8))
        assert large.requests > small.requests

    def test_barrier_synchronizes_join_stage(self):
        env, engine, specs = build_stack(self.make_tables())
        plan = tpch_q12(join_fragments=4, barrier_on_join=True)
        result = run_query(env, engine, plan)
        expected = reference_result(
            specs, tpch_q12(join_fragments=4, barrier_on_join=True))
        np.testing.assert_allclose(result.batch.column("high_line_count"),
                                   expected.column("high_line_count"))
        assert result.shuffle_time() > 0


class TestBBQ3:
    def test_result_matches_reference(self):
        env, engine, specs = build_stack(
            [("clickstreams", 4, 2000), ("item", 1, 0)])
        plan = tpcxbb_q3(session_fragments=3)
        result = run_query(env, engine, plan)
        expected = reference_result(specs, tpcxbb_q3(session_fragments=3))
        got = result.batch.to_pydict()
        want = expected.to_pydict()
        # Note: sessionization windows differ at fragment boundaries only
        # if a user's clicks were split — the shuffle keys by user, so
        # results must match exactly.
        assert result.batch.num_rows > 0
        assert got["item_sk"] == want["item_sk"]
        assert got["views"] == want["views"]


class TestIaasDeployment:
    def test_q6_on_vm_shim_matches_faas(self):
        env_f, engine_f, specs = build_stack([("lineitem", 4, 400)])
        faas = run_query(env_f, engine_f, tpch_q6(scan_fragments=4))
        env_v, engine_v, _ = build_stack([("lineitem", 4, 400)],
                                         backend="iaas")
        iaas = run_query(env_v, engine_v, tpch_q6(scan_fragments=4))
        np.testing.assert_allclose(faas.batch.column("revenue")[0],
                                   iaas.batch.column("revenue")[0],
                                   rtol=1e-9)

    def test_faas_has_startup_overhead_vs_warm_iaas(self):
        """Section 5.2: FaaS end-to-end latency is slightly higher."""
        env_f, engine_f, _ = build_stack([("lineitem", 4, 400)])
        faas = run_query(env_f, engine_f, tpch_q6(scan_fragments=4))
        env_v, engine_v, _ = build_stack([("lineitem", 4, 400)],
                                         backend="iaas")
        iaas = run_query(env_v, engine_v, tpch_q6(scan_fragments=4))
        assert faas.runtime > iaas.runtime


class TestTwoLevelInvocation:
    """Section 3.2's two-level fan-out, at a width a test can afford.

    A stage goes through second-level invokers from
    ``TWO_LEVEL_THRESHOLD`` (256) fragments; no tier-1 query is that
    wide, so the module constants are lowered until a 16-fragment Q6
    scan takes the path.
    """

    TABLES = [("lineitem", 16, 64)]
    FRAGMENTS = 16
    SLICE = 4
    #: The first scan worker invoked dies; its retry does not.
    ONE_SCAN_CRASH = FaultPlan(
        name="one-scan-crash", description="One scan worker crashes, once.",
        specs=(FaultSpec(kind="worker_crash", function="skyrise-worker",
                         pipeline="scan", max_events=1),))

    @pytest.fixture
    def two_level(self, monkeypatch):
        monkeypatch.setattr(coordinator, "TWO_LEVEL_THRESHOLD", 8)
        monkeypatch.setattr(coordinator, "INVOKER_SLICE", self.SLICE)

    def build(self, plan=None, recovery=None):
        """A loaded stack, with ``plan`` (if any) installed on its platform."""
        env, engine, _ = build_stack(self.TABLES, recovery=recovery)
        injector = None
        if plan is not None:
            injector = FaultInjector(plan, RandomStreams(seed=0))
            injector.install(platform=engine.backend)
        return env, engine, injector

    def query(self):
        return tpch_q6(scan_fragments=self.FRAGMENTS)

    @staticmethod
    def invocations(engine, function):
        return [record for record in engine.backend.records
                if record.function == function]

    @staticmethod
    def struck_fragment(injector):
        [fault] = injector.timeline()
        return int(fault["target"].removeprefix("skyrise-worker/frag-"))

    @pytest.fixture
    def one_level_revenue(self):
        env, engine, _ = self.build()
        result = run_query(env, engine, self.query())
        assert self.invocations(engine, "skyrise-invoker") == []
        return result.batch.column("revenue")

    def test_same_result_through_one_invoker_per_slice(
            self, one_level_revenue, two_level):
        env, engine, _ = self.build()
        result = run_query(env, engine, self.query())
        assert result.fragments["scan"] == self.FRAGMENTS
        np.testing.assert_array_equal(result.batch.column("revenue"),
                                      one_level_revenue)
        assert len(self.invocations(engine, "skyrise-invoker")) \
            == math.ceil(self.FRAGMENTS / self.SLICE)
        # 16 scan workers + the final aggregation, each invoked once.
        assert len(self.invocations(engine, "skyrise-worker")) \
            == self.FRAGMENTS + 1
        assert result.retries == 0

    def test_worker_fault_in_a_slice_retries_that_fragment_directly(
            self, one_level_revenue, two_level):
        env, engine, injector = self.build(self.ONE_SCAN_CRASH)
        result = run_query(env, engine, self.query())
        np.testing.assert_array_equal(result.batch.column("revenue"),
                                      one_level_revenue)
        assert (result.retries, result.failed_attempts) == (1, 1)
        assert [(event["event"], event["pipeline"], event["fragment"],
                 event["attempt"]) for event in result.recovery_events] \
            == [("retry", "scan", self.struck_fragment(injector), 1)]
        # Only the crashed fragment went out again, and as a worker
        # invocation of its own: no slice was re-sent through an invoker.
        assert len(self.invocations(engine, "skyrise-worker")) \
            == self.FRAGMENTS + 1 + 1
        assert len(self.invocations(engine, "skyrise-invoker")) \
            == math.ceil(self.FRAGMENTS / self.SLICE)

    def test_exhausted_fragment_keeps_its_identity(self, two_level):
        env, engine, injector = self.build(
            self.ONE_SCAN_CRASH, recovery=RecoveryConfig(max_attempts=1))
        with pytest.raises(FragmentFailure) as failure:
            run_query(env, engine, self.query())
        assert (failure.value.pipeline, failure.value.fragment,
                failure.value.attempts) \
            == ("scan", self.struck_fragment(injector), 1)


class TestPlanHandover:
    """The engine runs the plan object it is handed, and only reads it."""

    TABLES = {
        "tpch-q1": [("lineitem", 4, 500)],
        "tpch-q6": [("lineitem", 6, 400)],
        "tpch-q12": [("lineitem", 6, 600), ("orders", 3, 1200)],
        "tpcxbb-q3": [("clickstreams", 4, 2000), ("item", 1, 0)],
    }
    #: The first two workers invoked die; their retries do not.
    TWO_CRASHES = FaultPlan(
        name="two-crashes", description="Two worker invocations crash.",
        specs=(FaultSpec(kind="worker_crash", function="skyrise-worker",
                         max_events=2),))

    def test_resubmitted_plan_is_the_plan_that_runs(self):
        env, engine, _ = build_stack(self.TABLES["tpch-q6"])
        plan = tpch_q6(scan_fragments=2)
        first = run_query(env, engine, plan)
        plan.pipeline("scan").fragments = 4
        second = run_query(env, engine, plan)
        assert (first.fragments["scan"], second.fragments["scan"]) == (2, 4)
        np.testing.assert_allclose(second.batch.column("revenue"),
                                   first.batch.column("revenue"), rtol=1e-9)

    @pytest.mark.parametrize("faults", [None, TWO_CRASHES],
                             ids=["fault-free", "worker-crash"])
    @pytest.mark.parametrize("query", sorted(TABLES))
    def test_engine_does_not_mutate_the_plan(self, query, faults):
        env, engine, _ = build_stack(self.TABLES[query])
        if faults is not None:
            FaultInjector(faults, RandomStreams(seed=0)).install(
                platform=engine.backend)
        plan = QUERY_BUILDERS[query]()
        before = pickle.dumps(plan)
        results = [run_query(env, engine, plan) for _ in range(2)]
        assert pickle.dumps(plan) == before
        # Retries re-send the PipelineSpec the first attempt was handed.
        assert sum(result.retries for result in results) \
            == (2 if faults is not None else 0)


class TestEngineGuards:
    def test_run_before_deploy_rejected(self):
        env = Environment()
        fabric = Fabric(env)
        rng = RandomStreams(seed=0)
        s3 = S3Standard(env, fabric, rng)
        platform = LambdaPlatform(env, fabric, rng)
        engine = SkyriseEngine(env, platform, storage={"s3-standard": s3})
        with pytest.raises(RuntimeError, match="deploy"):
            env.process(engine.run_query(tpch_q6()))
            env.run()
