"""The telemetry recorder and the global no-op default.

One :class:`TelemetryRecorder` observes one simulation: a metric
registry of typed instruments, the span store of every trace, and a
global timeline of instant events (faults, sheds, throttle transitions,
hedge decisions). The module-level default is a :class:`NullRecorder`
whose ``enabled`` flag is ``False`` — every instrumentation site in the
simulation guards on that flag, so an uninstrumented run does no
recording work beyond a predicate check and stays byte-identical to a
build without telemetry.

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
    Histogram,
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

    __slots__ = ("_events", "_processes", "_depth", "_stride", "_i")

    def __init__(self, recorder: "TelemetryRecorder",
                 stride: int = KERNEL_SAMPLE_EVERY) -> None:
        self._events = recorder.counter("sim.events_processed")
        self._processes = recorder.counter("sim.processes_started")
        self._depth = recorder.timeseries("sim.ready_queue_depth")
        self._stride = stride
        self._i = 0

    def on_event(self, now: float, queue_depth: int) -> None:
        """One event was processed at virtual time ``now``."""
        self._events.value += 1
        self._i += 1
        if self._i >= self._stride:
            self._i = 0
            self._depth.sample(now, float(queue_depth))

    def on_process(self, name: Optional[str]) -> None:
        """A new process was started."""
        self._processes.value += 1


class TelemetryRecorder:
    """Collects metrics, spans, and events for one simulation."""

    enabled = True

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

    def histogram(self, name: str) -> Histogram:
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

    # -- views ---------------------------------------------------------------

    def traces(self) -> list[str]:
        """Trace ids in first-appearance order."""
        seen: list[str] = []
        for span in self.spans:
            if span.trace_id not in seen:
                seen.append(span.trace_id)
        return seen

    def spans_of(self, trace_id: str) -> list[Span]:
        """All spans of one trace, in creation order."""
        return [span for span in self.spans if span.trace_id == trace_id]

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in creation order."""
        return [s for s in self.spans
                if s.trace_id == span.trace_id
                and s.parent_id == span.span_id]

    # -- attachment ----------------------------------------------------------

    def attach_kernel(self, env) -> None:
        """Install a :class:`KernelMonitor` on a simulation environment."""
        env.set_monitor(KernelMonitor(self))


class _NullSpan(Span):
    """Shared inert span returned by the :class:`NullRecorder`."""

    def __init__(self) -> None:
        super().__init__(trace_id="null", span_id=0, parent_id=None,
                         name="null", category="null", start=0.0, end=0.0)

    def add_event(self, t, name, **attrs) -> None:
        pass

    def finish(self, t, **attrs) -> "Span":
        return self


class _NullHistogram(Histogram):
    """Shared inert histogram: observations vanish, percentiles are 0."""

    __slots__ = ()

    def observe(self, value_s: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = Counter("null")
_NULL_GAUGE = Gauge("null")
_NULL_SERIES = TimeSeries("null", max_points=0)
_NULL_HISTOGRAM = _NullHistogram("null")


class NullRecorder:
    """Determinism-neutral default: records nothing, allocates nothing.

    Every method mirrors :class:`TelemetryRecorder` and returns shared
    inert objects, so instrumentation sites that skip the ``enabled``
    guard still cannot fail — they just record into the void.
    """

    enabled = False

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def timeseries(self, name: str, min_dt: float = 0.0) -> TimeSeries:
        return _NULL_SERIES

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def unique_name(self, base: str) -> str:
        return base

    def start_trace(self, name, t, category="query", attrs=None) -> Span:
        return _NULL_SPAN

    def start_span(self, name, t, parent=None, category="span",
                   attrs=None) -> Span:
        return _NULL_SPAN

    def record_span(self, name, start, end, parent=None, category="span",
                    attrs=None) -> Span:
        return _NULL_SPAN

    def event(self, t, name, category="event", **attrs) -> None:
        pass

    def attach_kernel(self, env) -> None:
        pass


NULL_RECORDER = NullRecorder()

_current: object = NULL_RECORDER


def get_recorder():
    """The active recorder (the shared no-op one unless enabled)."""
    return _current


def set_recorder(recorder) -> object:
    """Install ``recorder`` as the global; returns the previous one."""
    global _current
    previous = _current
    _current = recorder  # repro-lint: disable=CONC001 deliberate process-wide switch: recording is per-run, installed before the run starts and restored after it drains
    return previous


def enable() -> TelemetryRecorder:
    """Install (and return) a fresh :class:`TelemetryRecorder`."""
    recorder = TelemetryRecorder()
    set_recorder(recorder)
    return recorder


def disable() -> None:
    """Restore the no-op default recorder."""
    set_recorder(NULL_RECORDER)


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
