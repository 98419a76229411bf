"""Unit tests for spans, trace propagation, and the global recorder."""

import pytest

from repro.sim import Environment
from repro.telemetry import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    TelemetryRecorder,
    disable,
    enable,
    get_recorder,
    parent_ids,
    recording,
    set_recorder,
)
from repro.telemetry.recorder import KERNEL_SAMPLE_EVERY


def test_span_lifecycle():
    span = Span(trace_id="t", span_id=1, parent_id=None, name="op",
                category="test", start=1.0)
    assert not span.finished
    assert span.duration == 0.0
    span.add_event(1.5, "milestone", detail="x")
    span.finish(3.0, rows=7)
    assert span.finished
    assert span.duration == 2.0
    assert span.attrs == {"rows": 7}
    assert span.events == [{"t": 1.5, "name": "milestone", "detail": "x"}]
    # finish is idempotent: the end time survives, attrs still merge.
    span.finish(9.0, extra=1)
    assert span.end == 3.0
    assert span.attrs["extra"] == 1


def test_parent_ids_accepts_span_and_none():
    span = Span(trace_id="t", span_id=4, parent_id=None, name="op",
                category="test", start=0.0)
    assert parent_ids(span) == ("t", 4)
    assert parent_ids(None) == (None, None)
    for not_a_span in (42, {"trace_id": "t", "span_id": 4}):
        with pytest.raises(TypeError):
            parent_ids(not_a_span)


def test_recorder_span_hierarchy():
    recorder = TelemetryRecorder()
    root = recorder.start_trace("query q1", 0.0)
    child = recorder.start_span("stage", 0.5, parent=root, category="stage")
    grandchild = recorder.record_span("read", 0.6, 0.9, parent=child,
                                      category="storage")
    assert root.trace_id == child.trace_id == grandchild.trace_id
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    assert grandchild.finished
    assert recorder.children_of(root) == [child]
    assert recorder.children_of(child) == [grandchild]
    assert recorder.spans_of(root.trace_id) == [root, child, grandchild]


def test_recorder_trace_ids_are_sequential():
    recorder = TelemetryRecorder()
    first = recorder.start_trace("a", 0.0)
    second = recorder.start_trace("b", 1.0)
    assert first.trace_id != second.trace_id
    assert recorder.traces() == [first.trace_id, second.trace_id]


def test_orphan_span_joins_ambient_trace():
    recorder = TelemetryRecorder()
    span = recorder.start_span("background", 2.0)
    assert span.trace_id == "trace-ambient"
    assert span.parent_id is None


def test_unique_name_serials():
    recorder = TelemetryRecorder()
    assert recorder.unique_name("shaper.in") == "shaper.in#0"
    assert recorder.unique_name("shaper.in") == "shaper.in#1"
    assert recorder.unique_name("shaper.out") == "shaper.out#0"


def test_recorder_events_timeline():
    recorder = TelemetryRecorder()
    recorder.event(1.0, "gateway.shed", category="serving", tenant="batch")
    assert recorder.events == [{"t": 1.0, "name": "gateway.shed",
                                "category": "serving", "tenant": "batch"}]


def test_null_recorder_is_inert():
    null = NullRecorder()
    assert not null.enabled
    span = null.start_trace("q", 0.0)
    assert span is null.start_span("x", 1.0) is null.record_span("y", 0, 1)
    span.add_event(0.0, "ignored")
    span.finish(5.0, extra=1)
    assert span.events == [] and span.attrs == {}
    null.counter("c").inc()
    null.gauge("g").set(1.0)
    null.timeseries("s").sample(0.0, 1.0)
    assert null.counter("c").value >= 0  # shared scratch object; no raise
    assert null.timeseries("s").points == []  # max_points=0: never stores
    null.event(0.0, "ignored")
    null.attach_kernel(object())  # no-op, accepts anything


def test_global_recorder_installation():
    assert get_recorder() is NULL_RECORDER
    recorder = enable()
    try:
        assert get_recorder() is recorder
        assert recorder.enabled
    finally:
        disable()
    assert get_recorder() is NULL_RECORDER


def test_recording_context_restores_previous():
    sentinel = NullRecorder()
    previous = set_recorder(sentinel)
    try:
        with recording() as recorder:
            assert get_recorder() is recorder
            assert isinstance(recorder, TelemetryRecorder)
        assert get_recorder() is sentinel
    finally:
        set_recorder(previous)


def test_kernel_monitor_counts_events_and_samples_depth():
    recorder = TelemetryRecorder()
    env = Environment()
    recorder.attach_kernel(env)

    def ticker(env):
        for _ in range(2 * KERNEL_SAMPLE_EVERY):
            yield env.timeout(0.001)

    env.run(until=env.process(ticker(env)))
    events = recorder.counter("sim.events_processed").value
    assert events >= 2 * KERNEL_SAMPLE_EVERY
    assert recorder.counter("sim.processes_started").value >= 1
    depth = recorder.timeseries("sim.ready_queue_depth")
    assert len(depth.points) == events // KERNEL_SAMPLE_EVERY


def test_kernel_without_monitor_is_unaffected():
    env = Environment()

    def ticker(env):
        yield env.timeout(1.0)
        return "done"

    process = env.process(ticker(env))
    env.run(until=process)
    assert process.value == "done"
    assert env.now == 1.0
