"""Tests for the coordinator's recovery layer under fault injection."""

import numpy as np
import pytest

from repro.chaos import WorkerCrash
from repro.chaos.runner import run_chaos_suite
from repro.core import CloudSim
from repro.datagen import load_table, scaled_spec
from repro.engine import SkyriseEngine
from repro.engine.coordinator import FragmentFailure
from repro.engine.io import IoStack
from repro.engine.queries import tpch_q6
from repro.engine.shuffle import ShuffleWriter
from repro.faas.supervisor import RecoveryPolicy
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema
from repro.network import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage import S3Standard
from repro.storage.base import RequestType
from repro.storage.errors import NoSuchKey


class TestFragmentFailure:
    def test_carries_fragment_identity(self):
        cause = WorkerCrash("injected worker crash")
        failure = FragmentFailure("scan", 3, 2, cause)
        assert failure.pipeline == "scan"
        assert failure.fragment == 3
        assert failure.attempts == 2
        assert failure.cause is cause
        assert "scan/3" in str(failure)
        assert "2 attempt(s)" in str(failure)


class TestRecoveryUnderDemoOutage:
    """The acceptance scenario: the retry-free engine dies, the
    recovery layer survives with measurable retries and hedge wins."""

    def test_retry_free_engine_fails_with_named_fragments(self):
        report = run_chaos_suite(
            "demo-outage", repeats=2, seed=0, baseline=False,
            recovery=RecoveryPolicy(max_attempts=1, hedge=False))
        assert report.unrecovered >= 1
        failures = [o for o in report.outcomes if not o.ok]
        for outcome in failures:
            # Concurrent fragment failures keep their identity instead
            # of collapsing into one anonymous invoker error.
            assert outcome.error.startswith("FragmentFailure: fragment ")
            assert "scan/" in outcome.error
            assert "1 attempt(s)" in outcome.error

    def test_attempt_free_policy_is_rejected(self):
        # Zero attempts per fragment used to reach the engine and run as
        # one attempt with no retries (goodput 0 under demo-outage); the
        # policy now refuses it when built, so no engine can receive it.
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            RecoveryPolicy(max_attempts=0)

    def test_recovery_layer_absorbs_the_same_plan(self):
        report = run_chaos_suite("demo-outage", repeats=2, seed=0)
        assert report.goodput == 1.0
        assert report.unrecovered == 0
        assert report.total_retries >= 1
        assert report.recovered >= 1
        # Hedge wins are counted separately from retries.
        assert report.total_hedges >= report.total_hedge_wins >= 1
        retried = [o for o in report.outcomes if o.retries or o.hedges]
        assert retried
        for outcome in retried:
            # Retried/hedged attempts are billed: itemized, and
            # *included in* the query cost, not added on top.
            assert outcome.retry_cost_cents > 0
            assert outcome.retry_cost_cents < outcome.cost_cents
        # The baseline pass populates the overhead columns: recovery
        # costs extra runtime and extra cents versus fault-free.
        assert report.total_recovery_latency_s > 0
        assert report.total_cost_overhead_cents > 0
        assert report.fault_counts.get("worker_crash", 0) >= 1

    def test_report_tracks_injected_faults(self):
        report = run_chaos_suite("demo-outage", repeats=2, seed=0,
                                 baseline=False)
        assert sum(report.fault_counts.values()) == len(
            report.fault_timeline) + report.dropped_fault_events
        for event in report.fault_timeline:
            assert event["kind"] in report.fault_counts


class TestQueryValidation:
    """The suite's plans take ``scan_fragments=4`` over two clickstreams
    partitions: Q12's builder has no such argument and TPCx-BB Q3 would
    leave fragments without a partition. Both are refused before any
    query runs, with the queries the suite can run named."""

    @pytest.mark.parametrize("query", ["tpch-q12", "tpcxbb-q3"])
    def test_unfit_queries_are_refused_before_any_run(self, query,
                                                      monkeypatch):
        monkeypatch.setattr(
            "repro.chaos.runner.CloudSim",
            lambda **_: pytest.fail("a run started"))
        with pytest.raises(ValueError, match=(
                f"cannot run {query} .* it runs tpch-q1, tpch-q6$")):
            run_chaos_suite("demo-outage", queries=("tpch-q6", query),
                            repeats=1)

    def test_cli_exits_2_with_one_line(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--queries", "tpch-q12", "--repeats",
                     "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro chaos: error: the chaos suite "
                              "cannot run tpch-q12")
        assert err.count("\n") == 1


class TestNonRetryableErrors:
    def test_missing_partition_propagates_unchanged(self):
        """Application errors (NoSuchKey) bypass the retry machinery."""
        sim = CloudSim(seed=41)
        s3 = sim.s3()
        metadata = sim.run(load_table(
            sim.env, s3, scaled_spec("lineitem", 4, rows_per_partition=128)))
        engine = SkyriseEngine(sim.env, sim.platform,
                               storage={"s3-standard": s3},
                               recovery=RecoveryPolicy(max_attempts=3))
        engine.register_table(metadata)
        engine.deploy()
        victim = engine.catalog["lineitem"].partitions[2].key
        del s3._objects[victim]

        def scenario(env):
            try:
                yield from engine.run_query(tpch_q6(scan_fragments=4))
            except FragmentFailure as exc:  # pragma: no cover - regression
                return ("WRAPPED", str(exc))
            except NoSuchKey as exc:
                return ("RAW", str(exc))

        kind, message = sim.run(sim.env.process(scenario(sim.env)))
        # Raised as-is — not retried into a FragmentFailure — and still
        # naming the missing key.
        assert kind == "RAW"
        assert victim in message


class TestIdempotentShuffleWrites:
    @pytest.fixture
    def stack(self):
        env = Environment()
        fabric = Fabric(env)
        rng = RandomStreams(seed=3)
        s3 = S3Standard(env, fabric, rng)
        io = IoStack(env, s3, fabric.endpoint("worker-0"))
        return env, s3, io

    def run(self, env, gen):
        proc = env.process(gen)
        env.run(until=proc)
        return proc.value

    def batch(self):
        return RecordBatch(Schema([Field("a", DataType.INT64)]),
                           {"a": np.arange(16, dtype=np.int64)})

    def writer(self, io, epoch, combine=True):
        return ShuffleWriter(io, "q", "scan", fragment=0, partition_key="a",
                             partitions=2, combine=combine, epoch=epoch)

    def test_same_epoch_rewrite_is_skipped(self, stack):
        env, s3, io = stack
        first = self.run(env, self.writer(io, epoch=1).write(self.batch()))
        puts = s3.stats.total(RequestType.PUT)
        assert puts >= 1
        # A retried/hedged attempt carries the same epoch: the object is
        # already committed, so the write is a free metadata check.
        again = self.run(env, self.writer(io, epoch=1).write(self.batch()))
        assert s3.stats.total(RequestType.PUT) == puts
        assert again["epoch"] == first["epoch"] == 1

    def test_new_epoch_overwrites(self, stack):
        env, s3, io = stack
        self.run(env, self.writer(io, epoch=1).write(self.batch()))
        puts = s3.stats.total(RequestType.PUT)
        # A fresh execution of the same plan bumps the epoch and must
        # not read the previous run's output as its own.
        result = self.run(env, self.writer(io, epoch=2).write(self.batch()))
        assert s3.stats.total(RequestType.PUT) > puts
        assert result["epoch"] == 2

    def test_uncombined_index_is_the_commit_record(self, stack):
        env, s3, io = stack
        writer = self.writer(io, epoch=1, combine=False)
        index = self.run(env, writer.write(self.batch()))
        assert index["epoch"] == 1 and index["combined"] is False
        assert s3.exists(writer.key)
        assert s3.exists(f"{writer.key}/p-00000")
        puts = s3.stats.total(RequestType.PUT)
        self.run(env, self.writer(io, epoch=1, combine=False)
                 .write(self.batch()))
        assert s3.stats.total(RequestType.PUT) == puts
