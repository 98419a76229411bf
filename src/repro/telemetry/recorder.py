"""The telemetry recorder and the global slot that holds it.

One :class:`TelemetryRecorder` observes one simulation: a metric
registry of typed instruments, the span store of every trace, and a
global timeline of instant events (faults, sheds, throttle transitions,
hedge decisions). Outside :func:`recording` the global is ``None`` —
every instrumentation site in the simulation checks
``recorder is not None``, so an uninstrumented run does no recording
work beyond that check and stays byte-identical to a build without
telemetry.

Usage::

    from repro.telemetry import recording
    with recording() as rec:
        sim = CloudSim(seed=0)          # construct INSIDE the context
        ...                             # run queries, workloads, ...
    snapshot = metrics_snapshot(rec)

Components capture the global recorder at construction time, so the
recorder must be installed *before* the simulation is built. Recording
never creates simulation events, advances the clock, or draws from any
RNG stream — telemetry on vs. off yields byte-identical results (a
property test enforces this).
"""

from __future__ import annotations

import contextlib
from typing import Optional

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricRegistry,
    TimeSeries,
)
from repro.telemetry.spans import Span, parent_ids

#: The kernel monitor samples ready-queue depth every this many events.
KERNEL_SAMPLE_EVERY = 256


class KernelMonitor:
    """Hook object installed on :class:`~repro.sim.kernel.Environment`.

    The kernel calls :meth:`on_event` once per processed event — the
    hottest loop in the whole simulation — so the monitor only bumps a
    counter and samples queue depth at a fixed stride.
    """

    __slots__ = ("_events", "_processes", "_depth", "_i")

    def __init__(self, recorder: "TelemetryRecorder") -> None:
        self._events = recorder.counter("sim.events_processed")
        self._processes = recorder.counter("sim.processes_started")
        self._depth = recorder.timeseries("sim.ready_queue_depth")
        self._i = 0

    def on_event(self, now: float, queue_depth: int) -> None:
        """One event was processed at virtual time ``now``."""
        self._events.value += 1
        self._i += 1
        if self._i >= KERNEL_SAMPLE_EVERY:
            self._i = 0
            self._depth.sample(now, float(queue_depth))

    def on_process(self, name: Optional[str]) -> None:
        """A new process was started."""
        self._processes.value += 1


class TelemetryRecorder:
    """Collects metrics, spans, and events for one simulation."""

    def __init__(self) -> None:
        self.metrics = MetricRegistry()
        self.spans: list[Span] = []
        self.events: list[dict] = []
        self._span_seq = 0
        self._trace_seq = 0
        self._name_serials: dict[str, int] = {}

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``."""
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``."""
        return self.metrics.gauge(name)

    def timeseries(self, name: str, min_dt: float = 0.0) -> TimeSeries:
        """The time series called ``name``."""
        return self.metrics.timeseries(name, min_dt=min_dt)

    def histogram(self, name: str) -> LatencyHistogram:
        """The latency histogram called ``name``."""
        return self.metrics.histogram(name)

    def unique_name(self, base: str) -> str:
        """``base#N`` with a per-base serial — deterministic identity for
        per-instance instruments (one shaper per sandbox direction)."""
        serial = self._name_serials.get(base, 0)
        self._name_serials[base] = serial + 1
        return f"{base}#{serial}"

    # -- spans ---------------------------------------------------------------

    def start_trace(self, name: str, t: float, category: str = "query",
                    attrs: Optional[dict] = None) -> Span:
        """Open a new root span under a fresh trace id."""
        self._trace_seq += 1
        trace_id = f"trace-{self._trace_seq:04d}"
        return self._open(trace_id, None, name, category, t, attrs)

    def start_span(self, name: str, t: float, parent=None,
                   category: str = "span",
                   attrs: Optional[dict] = None) -> Span:
        """Open a child span under ``parent`` (a Span).

        With no parent the span joins an implicit ambient trace — useful
        for background activity (warm-pool pings, serving machinery)
        that belongs to no particular query.
        """
        trace_id, parent_id = parent_ids(parent)
        if trace_id is None:
            trace_id = "trace-ambient"
        return self._open(trace_id, parent_id, name, category, t, attrs)

    def record_span(self, name: str, start: float, end: float, parent=None,
                    category: str = "span",
                    attrs: Optional[dict] = None) -> Span:
        """Record an already-completed span (start and end both known)."""
        span = self.start_span(name, start, parent=parent,
                               category=category, attrs=attrs)
        span.end = end
        return span

    def _open(self, trace_id: str, parent_id: Optional[int], name: str,
              category: str, t: float, attrs: Optional[dict]) -> Span:
        self._span_seq += 1
        span = Span(trace_id=trace_id, span_id=self._span_seq,
                    parent_id=parent_id, name=name, category=category,
                    start=t, attrs=dict(attrs) if attrs else {})
        self.spans.append(span)
        return span

    # -- events --------------------------------------------------------------

    def event(self, t: float, name: str, category: str = "event",
              **attrs) -> None:
        """Record a global instant event on the virtual timeline."""
        entry = {"t": t, "name": name, "category": category}
        if attrs:
            entry.update(attrs)
        self.events.append(entry)

    # -- attachment ----------------------------------------------------------

    def attach_kernel(self, env) -> None:
        """Install a :class:`KernelMonitor` on a simulation environment."""
        env.set_monitor(KernelMonitor(self))


_current: Optional[TelemetryRecorder] = None


def get_recorder() -> Optional[TelemetryRecorder]:
    """The active recorder, or ``None`` when telemetry is off."""
    return _current


def set_recorder(
        recorder: Optional[TelemetryRecorder]) -> Optional[TelemetryRecorder]:
    """Install ``recorder`` as the global (``None`` turns telemetry off);
    returns the previous one."""
    global _current
    previous = _current
    _current = recorder
    return previous


@contextlib.contextmanager
def recording():
    """Context manager: fresh recorder inside, previous restored after.

    Build the simulation inside the ``with`` block — components capture
    the recorder at construction time.
    """
    previous = set_recorder(TelemetryRecorder())
    try:
        yield _current
    finally:
        set_recorder(previous)
