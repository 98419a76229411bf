"""Tests for query tracing, failure injection, and straggler handling."""

from operator import itemgetter

import pytest

from repro import units
from repro.chaos import FaultInjector, get_plan
from repro.core import CloudSim
from repro.datagen import load_table, scaled_spec
from repro.engine import SkyriseEngine, coordinator
from repro.faas.supervisor import RecoveryPolicy
from repro.engine.io import IoStack
from repro.engine.queries import tpch_q6, tpch_q12
from repro.engine.worker import WorkerReport
from repro.futures.workloads import run_wordcount
from repro.network import Fabric
from repro.obs.profiler import (
    makespan,
    render_gantt,
    skew,
    stragglers,
    worker_timeline,
)
from repro.sim import Environment, RandomStreams
from repro.storage import S3Standard
from repro.storage.errors import ItemTooLarge, NoSuchKey
from repro.telemetry import TelemetryRecorder, recording


def build_engine(sim, partitions=4, rows=128):
    s3 = sim.s3()
    metadata = sim.run(load_table(
        sim.env, s3, scaled_spec("lineitem", partitions,
                                 rows_per_partition=rows)))
    engine = SkyriseEngine(sim.env, sim.platform,
                           storage={"s3-standard": s3})
    engine.register_table(metadata)
    engine.deploy()
    return engine


def record_outage_q6(fragments=16):
    """Q6 under ``demo-outage`` with hedging on, span tree recorded."""
    with recording() as recorder:
        sim = CloudSim(seed=40)
        s3 = sim.s3()
        metadata = sim.run(load_table(sim.env, s3, scaled_spec(
            "lineitem", fragments, rows_per_partition=64)))
        engine = SkyriseEngine(sim.env, sim.platform,
                               storage={"s3-standard": s3},
                               recovery=RecoveryPolicy(hedge=True))
        engine.register_table(metadata)
        engine.deploy()
        FaultInjector(get_plan("demo-outage"), RandomStreams(seed=0)).install(
            platform=sim.platform, services=[s3])
        sim.run(engine.run_query(tpch_q6(scan_fragments=fragments)))
    return sim, recorder


def fold_records(records):
    """The oracle: the worker timeline folded from invocation records
    (finish order), with the Gantt's marker precedence."""
    timeline = {}
    for record in records:
        report = record.response
        if not isinstance(report, WorkerReport):
            continue
        marker = ("h" if report.hedged else "r" if report.attempt
                  else "C" if record.cold else "w")
        timeline.setdefault(report.pipeline, []).append((
            report.fragment, record.requested_at, record.started_at,
            record.finished_at, marker))
    return {pipeline: sorted(rows, key=itemgetter(0))
            for pipeline, rows in timeline.items()}


def _invocation(recorder, pipeline, fragment, requested, started, finished,
                cold=False, **attrs):
    """Hand-built invoke → startup + worker spans of one invocation."""
    invoke = recorder.record_span(f"invoke w/{fragment}", requested,
                                  finished, category="faas")
    recorder.record_span("coldstart" if cold else "warmstart", requested,
                         started, parent=invoke, category="faas")
    recorder.record_span(f"worker {pipeline}/{fragment}", started, finished,
                         parent=invoke, category="worker",
                         attrs={"pipeline": pipeline, "fragment": fragment,
                                **attrs})


class TestTracing:
    def test_worker_timeline_from_engine_spans(self):
        with recording() as recorder:
            sim = CloudSim(seed=40)
            engine = build_engine(sim)
            result = sim.run(engine.run_query(tpch_q6(scan_fragments=4)))
        timeline = worker_timeline(recorder.spans)
        assert list(timeline) == ["scan", "final"]
        assert {p: len(rows) for p, rows in timeline.items()} \
            == result.fragments
        assert makespan(timeline) > 0
        for rows in timeline.values():
            for _, requested, started, finished, _ in rows:
                assert finished >= started >= requested

    def test_gantt_renders_stage_rows(self):
        with recording() as recorder:
            sim = CloudSim(seed=40)
            engine = build_engine(sim)
            sim.run(engine.run_query(tpch_q6(scan_fragments=3)))
        chart = render_gantt(recorder.spans, width=40)
        assert chart.startswith("query tpch-q6: ")
        assert "[scan]" in chart and "[final]" in chart
        assert "#" in chart
        # First run: every worker is a coldstart.
        assert "C" in chart

    @pytest.mark.parametrize("two_level", [False, True],
                             ids=["one-level", "two-level"])
    def test_timeline_equals_records_fold(self, two_level, monkeypatch):
        """One trace model: the span fold is the record fold, under
        retries, a straggler and (one-level) a hedge, through one- and
        two-level invocation."""
        if two_level:
            monkeypatch.setattr(coordinator, "TWO_LEVEL_THRESHOLD", 8)
            monkeypatch.setattr(coordinator, "INVOKER_SLICE", 4)
        sim, recorder = record_outage_q6()
        invokers = [record for record in sim.platform.records
                    if record.function == "skyrise-invoker"]
        assert bool(invokers) == two_level
        timeline = worker_timeline(recorder.spans)
        assert list(timeline.items()) \
            == list(fold_records(sim.platform.records).items())
        markers = [row[4] for row in timeline["scan"]]
        assert "r" in markers
        # Two-level stages only learn outcomes per invoker slice, so
        # the coordinator hedges one-level stages only.
        assert ("h" in markers) is not two_level

    def test_every_recorded_span_is_finished(self, monkeypatch):
        """No span is left open on a run that retries, hedges,
        speculates and invokes in two levels: query, coordinator, stage,
        invoke, worker and futures-dispatch spans all get an end."""
        runs = {"outage-q6": record_outage_q6()[1]}
        monkeypatch.setattr(coordinator, "TWO_LEVEL_THRESHOLD", 8)
        monkeypatch.setattr(coordinator, "INVOKER_SLICE", 4)
        runs["two-level-q6"] = record_outage_q6()[1]
        with recording() as recorder:
            run_wordcount(seed=7, objects=16, chunks_per_object=4,
                          speculate=True)
        runs["wordcount"] = recorder
        for name, recorder in runs.items():
            categories = {span.category for span in recorder.spans}
            assert categories >= ({"futures"} if name == "wordcount" else
                                  {"stage", "faas", "worker"}), name
            open_spans = [span.name for span in recorder.spans
                          if span.end is None]
            assert open_spans == [], f"{name}: {open_spans}"

    def test_skew_and_stragglers(self):
        recorder = TelemetryRecorder()
        for fragment, duration in enumerate([1.0, 1.0, 1.0, 5.0]):
            _invocation(recorder, "scan", fragment, 0.0, 0.0, duration)
        rows = worker_timeline(recorder.spans)["scan"]
        assert skew(rows) == pytest.approx(5.0)
        assert [row[0] for row in stragglers(rows)] == [3]

    def test_empty_trace_degrades_gracefully(self):
        assert worker_timeline([]) == {}
        assert makespan({}) == 0.0
        assert skew([]) == 1.0
        assert stragglers([]) == []
        assert "(no worker spans)" in render_gantt([])


class TestFailureInjection:
    def test_missing_partition_fails_query_with_context(self):
        sim = CloudSim(seed=41)
        engine = build_engine(sim)
        # Inject: delete a base-table partition behind the catalog's back.
        victim = engine.catalog["lineitem"].partitions[2].key
        del sim.s3()._objects[victim]

        def scenario(env):
            try:
                yield from engine.run_query(tpch_q6(scan_fragments=4))
            except NoSuchKey as exc:
                return str(exc)

        outcome = sim.run(sim.env.process(scenario(sim.env)))
        assert victim in outcome

    def test_worker_crash_propagates_to_caller(self):
        sim = CloudSim(seed=41)
        engine = build_engine(sim)
        plan = tpch_q12(join_fragments=2)  # orders table never registered

        def scenario(env):
            try:
                yield from engine.run_query(plan)
            except KeyError as exc:
                return str(exc)

        outcome = sim.run(sim.env.process(scenario(sim.env)))
        assert "orders" in outcome

    def test_oversized_shuffle_slice_to_dynamodb_rejected(self):
        """Why object storage: key-value stores cap items at 400 KiB."""
        sim = CloudSim(seed=41)
        ddb = sim.dynamodb()

        def attempt(env):
            try:
                yield from ddb.put("shuffle/slice", b"",
                                   size=2 * units.MiB)
            except ItemTooLarge:
                return "rejected"

        assert sim.run(sim.env.process(attempt(sim.env))) == "rejected"


class TestStragglerRetrigger:
    def test_slow_first_byte_is_retriggered(self):
        """A chunk whose first-byte latency exceeds the size-based
        timeout is abandoned and re-issued (Section 3.2)."""
        env = Environment()
        fabric = Fabric(env)
        rng = RandomStreams(seed=9)
        s3 = S3Standard(env, fabric, rng)

        def put(env):
            yield from s3.put("k", b"v", size=units.KiB)

        proc = env.process(put(env))
        env.run(until=proc)

        # Rig the latency sampler: first draw a pathological straggler,
        # then normal latencies.
        draws = iter([30.0, 0.02, 0.02, 0.02])
        sampler_calls = []

        class RiggedModel:
            median = 0.02

            def sample_one(self, _rng):
                sampler_calls.append(1)
                return next(draws)

        s3.read_latency = RiggedModel()
        started, events = env.now, env.scheduled_events
        io = IoStack(env, s3, fabric.endpoint("w"))
        proc = env.process(io.read_object("k", logical_bytes=units.KiB))
        env.run(until=proc)
        # The straggler was abandoned at its 1 s deadline, and the retry
        # answered 0.02 s later: far sooner than the 30 s draw.
        assert io.stats.retried == 1
        assert len(sampler_calls) == 2
        assert round(env.now - started, 6) == 1.02
        assert (round(env.now, 9), env.scheduled_events - events) \
            == (1.076663098, 18)

    def test_slow_transfer_is_retriggered_and_its_flow_completes(self):
        """A chunk whose transfer overruns the deadline is re-issued too.
        The abandoned attempt's flow is not stopped: it delivers its
        bytes, here before the retry does."""
        env = Environment()
        fabric = Fabric(env)
        s3 = S3Standard(env, fabric, RandomStreams(seed=9))
        env.run(until=env.process(s3.put("k", None, size=4 * units.MiB)))
        # Eight other flows share the worker's 18 MiB/s link for its
        # first second: the first attempt gets 2 MiB/s and cannot finish
        # in time; its retry shares the link with it alone.
        link = fabric.link(18 * units.MiB)
        src, dst = fabric.endpoint("src"), fabric.endpoint("dst")
        noise = [fabric.open_flow(src, dst, (link,)) for _ in range(8)]

        def quiet(env):
            yield env.timeout(1.0)
            for flow in noise:
                flow.stop()

        flows = []
        transfer = fabric.transfer

        def watched(*args, **kwargs):
            flows.append(transfer(*args, **kwargs))
            return flows[-1]

        fabric.transfer = watched
        events = env.scheduled_events
        env.process(quiet(env))
        io = IoStack(env, s3, fabric.endpoint("w", links=(link,)))
        proc = env.process(io.read_object("k"))
        env.run(until=proc)
        assert io.stats.retried == 1
        assert (round(env.now, 9), env.scheduled_events - events) \
            == (1.401284455, 39)
        abandoned, retry = flows
        assert (round(abandoned.finished_at, 9), abandoned.transferred) \
            == (1.287449657, 4 * units.MiB)
        assert retry.finished_at == env.now
