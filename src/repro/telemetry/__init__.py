"""Simulation-wide observability: metrics, spans, and exporters.

Telemetry is off (:func:`get_recorder` is ``None``) unless simulation
construction is wrapped in :func:`recording`::

    from repro.telemetry import recording
    from repro.telemetry.export import chrome_trace, metrics_snapshot

    with recording() as rec:
        sim = CloudSim(seed=7)
        engine, plans = setup_engine(sim, setup)
        result = sim.run(engine.run_query(plans["tpch-q12"]))
    trace = chrome_trace(rec)            # Perfetto-loadable
    snapshot = metrics_snapshot(rec)     # canonical metrics dict

See ``docs/observability.md`` for the instrument catalog and span
hierarchy.
"""

from repro.telemetry.dashboard import render_dashboard, sparkline
from repro.telemetry.export import (
    canonical_json,
    chrome_trace,
    metrics_snapshot,
    round_floats,
    round_for_json,
    validate_chrome_trace,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricRegistry,
    TimeSeries,
)
from repro.telemetry.recorder import (
    KernelMonitor,
    TelemetryRecorder,
    get_recorder,
    recording,
    set_recorder,
)
from repro.telemetry.spans import Span, parent_ids

__all__ = [
    "Counter",
    "Gauge",
    "KernelMonitor",
    "LatencyHistogram",
    "MetricRegistry",
    "Span",
    "TelemetryRecorder",
    "TimeSeries",
    "canonical_json",
    "chrome_trace",
    "get_recorder",
    "metrics_snapshot",
    "parent_ids",
    "recording",
    "render_dashboard",
    "round_floats",
    "round_for_json",
    "set_recorder",
    "sparkline",
    "validate_chrome_trace",
]
