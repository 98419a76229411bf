"""End-to-end telemetry: cross-layer traces on real queries.

Covers the acceptance bar of the unified-telemetry PR: a traced TPC-H
Q12 run produces worker spans that nest storage/network child spans, a
metrics snapshot carrying shaper token-level and per-prefix IOPS time
series, and — with telemetry off (the default) — results byte-identical
to an instrumented-but-disabled run.
"""

import dataclasses
import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import CloudSim
from repro.faas.supervisor import hedge_candidates
from repro.obs.profiler import render_gantt
from repro.serve.gateway import QueryGateway, Tenant
from repro.sim import Environment
from repro.telemetry import (
    chrome_trace,
    metrics_snapshot,
    recording,
    validate_chrome_trace,
)
from repro.workloads.suite import SuiteSetup, build_plan, setup_engine
from tests.test_tracing_and_failures import record_outage_q6


def _fingerprint(result) -> dict:
    """Deterministic, comparable digest of a QueryResult."""
    digest = dataclasses.asdict(result)
    digest["batch"] = result.batch.to_pydict()
    return digest


def _run_query(query: str, seed: int = 7, record: bool = False):
    if record:
        with recording() as recorder:
            result = _run_query(query, seed=seed, record=False)[0]
        return result, recorder
    sim = CloudSim(seed=seed)
    setup = SuiteSetup(queries=(query,), lineitem_partitions=3,
                       orders_partitions=2, rows_per_partition=96)
    engine = setup_engine(sim, setup)
    return sim.run(engine.run_query(build_plan(query))), None


@functools.lru_cache(maxsize=1)
def _traced_q12():
    return _run_query("tpch-q12", record=True)


# -- span hierarchy -----------------------------------------------------------

def test_q12_worker_spans_nest_storage_children():
    _, recorder = _traced_q12()
    workers = [s for s in recorder.spans if s.category == "worker"]
    assert workers, "no worker spans recorded"
    ids = {(worker.trace_id, worker.span_id) for worker in workers}
    nested = [span for span in recorder.spans
              if (span.trace_id, span.parent_id) in ids]
    storage_children = [s for s in nested if s.category == "storage"]
    assert storage_children, "worker spans have no storage children"
    phase_children = [s for s in nested if s.category == "phase"]
    assert phase_children, "worker spans have no phase children"
    # Child intervals stay inside their worker span.
    by_id = {s.span_id: s for s in recorder.spans}
    for child in storage_children:
        worker = by_id[child.parent_id]
        assert worker.start <= child.start
        assert child.end <= worker.end + 1e-9


def test_q12_trace_has_full_layer_coverage():
    _, recorder = _traced_q12()
    categories = {span.category for span in recorder.spans}
    assert {"query", "faas", "coordinator", "stage", "worker", "storage",
            "phase", "operator"} <= categories
    # Invoke spans carry sandbox temperature children.
    starts = [s for s in recorder.spans
              if s.name in ("coldstart", "warmstart")]
    assert starts, "no sandbox startup spans recorded"


def test_q12_spans_share_one_trace():
    _, recorder = _traced_q12()
    assert len({span.trace_id for span in recorder.spans}) == 1
    root = recorder.spans[0]
    assert root.category == "query"
    assert root.parent_id is None
    assert root.end is not None
    assert root.attrs["query_id"] == "tpch-q12"


def test_q12_chrome_trace_validates():
    _, recorder = _traced_q12()
    counts = validate_chrome_trace(chrome_trace(recorder))
    assert counts["X"] == len(recorder.spans)


# -- metrics coverage ---------------------------------------------------------

def test_q12_snapshot_has_shaper_and_prefix_iops_series():
    _, recorder = _traced_q12()
    snapshot = metrics_snapshot(recorder)
    level_series = [name for name, body in snapshot["series"].items()
                    if name.startswith("shaper.") and name.endswith(".level")
                    and body["points"]]
    assert level_series, "no shaper token-level series with samples"
    iops_series = [name for name, body in snapshot["series"].items()
                   if name.endswith(".read_iops") and body["points"]]
    assert iops_series, "no per-prefix read-IOPS series with samples"
    assert snapshot["counters"]["sim.events_processed"] > 0
    assert snapshot["counters"]["lambda.cold_starts"] > 0
    assert snapshot["gauges"]["lambda.concurrent"]["peak"] >= 1


def test_q12_storage_admission_counters():
    _, recorder = _traced_q12()
    counters = recorder.metrics.counters
    assert counters["storage.s3-standard.get.ok"].value > 0
    assert counters["storage.s3-standard.prefix.read.admitted"].value > 0


# -- determinism neutrality ---------------------------------------------------

@settings(max_examples=4, deadline=None)
@given(st.integers(min_value=0, max_value=99))
def test_telemetry_is_determinism_neutral(seed):
    """Property: identical QueryResults with telemetry on vs. off."""
    on, _ = _run_query("tpch-q6", seed=seed, record=True)
    off, _ = _run_query("tpch-q6", seed=seed, record=False)
    assert _fingerprint(on) == _fingerprint(off)


def test_q12_determinism_neutral_single_seed():
    on, _ = _traced_q12()
    off, _ = _run_query("tpch-q12", seed=7, record=False)
    assert _fingerprint(on) == _fingerprint(off)


# -- serving layer ------------------------------------------------------------

def test_gateway_shed_emits_telemetry():
    with recording() as recorder:
        env = Environment()
        gateway = QueryGateway(env)
        gateway.register(Tenant(name="batch", max_queue_depth=1))
        assert gateway.submit("batch", plan=None) is not None
        assert gateway.submit("batch", plan=None) is None  # shed
    assert recorder.metrics.counters["gateway.shed"].value == 1
    sheds = [e for e in recorder.events if e["name"] == "gateway.shed"]
    assert sheds[0]["tenant"] == "batch"
    assert sheds[0]["queue_depth"] == 1
    depth = recorder.metrics.series["gateway.queue_depth"]
    assert depth.values()[-1] == 1.0


def test_gateway_depth_gauge_tracks_pop():
    with recording() as recorder:
        env = Environment()
        gateway = QueryGateway(env)
        gateway.register(Tenant(name="t"))
        gateway.submit("t", plan=None)
        gateway.submit("t", plan=None)
        gateway.pop("t")
    gauge = recorder.metrics.gauges["gateway.queue_depth"]
    assert gauge.value == 1.0
    assert gauge.peak == 2.0


# -- recovery telemetry (satellite: hedge decisions as events) ---------------

def test_hedge_candidates_recorded_as_event():
    with recording() as recorder:
        candidates = hedge_candidates(
            {1: 10.0, 2: 0.1}, [0.5, 0.6, 0.7], total=4,
            now=12.0, pipeline="scan")
    assert candidates == [1]
    events = [e for e in recorder.events if e["name"] == "hedge.candidates"]
    assert len(events) == 1
    assert events[0]["pipeline"] == "scan"
    assert events[0]["fragments"] == [1]
    assert events[0]["completed"] == 3 and events[0]["total"] == 4


def test_hedge_candidates_silent_without_now_or_recorder():
    # No recorder: plain behaviour.
    assert hedge_candidates({1: 10.0}, [0.5, 0.6], total=2) == [1]
    with recording() as recorder:
        # Recorder on but no clock passed: no event either.
        assert hedge_candidates({1: 10.0}, [0.5, 0.6], total=2) == [1]
    assert recorder.events == []


# -- gantt markers (satellite: attempt/hedged rendering) ----------------------

def _markers(gantt: str) -> list[str]:
    """The marker column of every fragment row, top to bottom."""
    return [parts[1] for parts in map(str.split, gantt.splitlines())
            if len(parts) >= 3 and parts[0].isdigit()]


def test_render_gantt_marks_retries_and_hedges():
    """Q6 under ``demo-outage`` with hedging: crashed fragments' retries
    render ``r``, the straggler's speculative duplicate ``h``."""
    _, recorder = record_outage_q6()
    markers = _markers(render_gantt(recorder.spans))
    assert markers.count("r") >= 1 and markers.count("h") >= 1
    assert set(markers) <= {"C", "w", "r", "h"}
