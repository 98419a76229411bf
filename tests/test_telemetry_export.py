"""Exporter tests: canonical JSON, Chrome trace schema, and the golden file.

The golden file pins the full Chrome-trace export of a small two-pipeline
query (TPC-H Q6, two scan fragments, seed 0) byte-for-byte. Regenerate it
after an intentional format change with::

    PYTHONPATH=src python tests/golden/regen_tpch_q6_trace.py
"""

import json
from pathlib import Path

import pytest

from repro.core.context import CloudSim
from repro.telemetry import (
    TelemetryRecorder,
    canonical_json,
    chrome_trace,
    metrics_snapshot,
    recording,
    round_floats,
    round_for_json,
    validate_chrome_trace,
)
from repro.workloads.suite import SuiteSetup, build_plan, setup_engine

GOLDEN = Path(__file__).parent / "golden" / "tpch_q6_trace.json"


def record_q6(seed: int = 0):
    """The golden scenario: TPC-H Q6, two scan fragments, fixed seed."""
    with recording() as recorder:
        sim = CloudSim(seed=seed)
        setup = SuiteSetup(queries=("tpch-q6",), lineitem_partitions=3,
                          orders_partitions=2, rows_per_partition=96)
        engine = setup_engine(sim, setup)
        result = sim.run(engine.run_query(
            build_plan("tpch-q6", scan_fragments=2)))
    return result, recorder


# -- canonical JSON helpers ---------------------------------------------------

def test_round_for_json():
    assert round_for_json(None) is None
    assert round_for_json(1.23456789012345) == 1.234567890
    assert round_for_json(2) == 2.0


def test_round_floats_recurses():
    nested = {"a": [0.1234567891239, {"b": (1.0, 2.999999999999)}], "c": "s"}
    rounded = round_floats(nested)
    assert rounded["a"][0] == 0.123456789
    assert rounded["a"][1]["b"] == [1.0, 3.0]
    assert rounded["c"] == "s"


def test_canonical_json_is_sorted_and_stable():
    first = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    second = canonical_json({"a": {"c": 3, "d": 2}, "b": 1})
    assert first == second
    assert first.index('"a"') < first.index('"b"')


def test_double_rounding_is_noop():
    value = 1.23456789055
    assert round_for_json(round_for_json(value)) == round_for_json(value)


# -- Chrome trace -------------------------------------------------------------

def _synthetic_recorder() -> TelemetryRecorder:
    recorder = TelemetryRecorder()
    root = recorder.start_trace("query q", 0.0)
    worker = recorder.start_span("worker", 1.0, parent=root,
                                 category="worker")
    recorder.record_span("read", 1.2, 1.8, parent=worker,
                         category="storage")
    worker.finish(2.0)
    root.finish(3.0)
    recorder.event(2.5, "global", category="test", value=1)
    recorder.timeseries("queue.depth").sample(0.5, 2.0)
    return recorder


def test_chrome_trace_shape_and_validation():
    recorder = _synthetic_recorder()
    trace = chrome_trace(recorder)
    assert trace["displayTimeUnit"] == "ms"
    counts = validate_chrome_trace(trace)
    assert counts["X"] == 3          # root + worker + read
    assert counts["M"] == 2          # trace process + events process
    assert counts["i"] == 1          # the global event
    assert counts["C"] == 1          # one counter sample
    # Round-trips through JSON.
    validate_chrome_trace(json.loads(canonical_json(trace)))


def test_chrome_trace_nests_children_in_parent_lane():
    recorder = _synthetic_recorder()
    events = {ev["name"]: ev for ev in chrome_trace(recorder)["traceEvents"]
              if ev.get("ph") == "X"}
    # The storage read is contained in the worker span, so both render in
    # the same lane (Perfetto draws containment as nesting).
    assert events["read"]["tid"] == events["worker"]["tid"]
    assert events["read"]["args"]["parent_id"] == \
        events["worker"]["args"]["span_id"]


def test_chrome_trace_overlapping_siblings_get_distinct_lanes():
    recorder = TelemetryRecorder()
    root = recorder.start_trace("q", 0.0)
    recorder.record_span("w0", 1.0, 5.0, parent=root, category="worker")
    recorder.record_span("w1", 2.0, 6.0, parent=root, category="worker")
    root.finish(7.0)
    events = {ev["name"]: ev for ev in chrome_trace(recorder)["traceEvents"]
              if ev.get("ph") == "X"}
    # Partial overlap cannot nest: the second worker takes a new lane.
    assert events["w0"]["tid"] != events["w1"]["tid"]
    validate_chrome_trace(chrome_trace(recorder))


def test_chrome_trace_marks_unfinished_spans():
    recorder = TelemetryRecorder()
    root = recorder.start_trace("q", 0.0)
    recorder.start_span("zombie", 1.0, parent=root)  # never finished
    root.finish(4.0)
    events = {ev["name"]: ev for ev in chrome_trace(recorder)["traceEvents"]
              if ev.get("ph") == "X"}
    assert events["zombie"]["args"]["unfinished"] is True
    # Extended to the max observed time, so Perfetto still renders it.
    assert events["zombie"]["dur"] == pytest.approx((4.0 - 1.0) * 1e6)


def test_validate_rejects_unknown_parent():
    recorder = TelemetryRecorder()
    root = recorder.start_trace("q", 0.0)
    child = recorder.record_span("c", 0.1, 0.2, parent=root)
    root.finish(1.0)
    trace = chrome_trace(recorder)
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "X" and ev["args"]["span_id"] == child.span_id:
            ev["args"]["parent_id"] = 999
    with pytest.raises(ValueError, match="unknown parent"):
        validate_chrome_trace(trace)


def test_validate_rejects_malformed_document():
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({"traceEvents": "nope"})
    with pytest.raises(ValueError, match="missing"):
        validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 1}]})


def test_counters_can_be_excluded():
    """A trace-filtered export drops the global counter rows."""
    recorder = _synthetic_recorder()
    assert "C" in validate_chrome_trace(chrome_trace(recorder))
    trace_id = recorder.spans[0].trace_id
    counts = validate_chrome_trace(
        chrome_trace(recorder, trace_ids=[trace_id]))
    assert "C" not in counts


# -- golden file --------------------------------------------------------------

def test_q6_trace_matches_golden_file():
    """Byte-exact Chrome trace for the pinned two-pipeline scenario."""
    _, recorder = record_q6()
    rendered = canonical_json(chrome_trace(recorder)) + "\n"
    assert GOLDEN.exists(), (
        f"golden file missing; generate with "
        f"PYTHONPATH=src python tests/golden/regen_tpch_q6_trace.py")
    assert rendered == GOLDEN.read_text()


def test_q6_trace_schema_holds():
    """Every span's parent id exists — on the real query, not a toy."""
    _, recorder = record_q6()
    counts = validate_chrome_trace(chrome_trace(recorder))
    assert counts["X"] == len(recorder.spans)
    # The two-pipeline plan produces spans from every layer.
    categories = {span.category for span in recorder.spans}
    assert {"query", "faas", "coordinator", "stage", "worker",
            "storage", "phase"} <= categories


def test_metrics_snapshot_is_canonical_and_parseable():
    _, recorder = record_q6()
    snapshot = metrics_snapshot(recorder)
    text = canonical_json(snapshot)
    parsed = json.loads(text)
    assert parsed["span_count"] == len(recorder.spans)
    assert parsed["counters"]["storage.s3-standard.get.ok"] > 0
    # Rendering twice from the same recorder is byte-identical.
    assert canonical_json(metrics_snapshot(recorder)) == text
