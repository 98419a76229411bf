"""Byte-stable exporters: canonical JSON, Chrome trace events, snapshots.

Every artifact the simulation writes to disk goes through
:func:`canonical_json` — sorted keys, two-space indent, floats rounded
before serialization — so the determinism contract is byte-exact: same
seed, same configuration, identical bytes. The chaos
:class:`~repro.chaos.report.ResilienceReport` and serving artifacts
share these helpers.

:func:`chrome_trace` converts a recorder's spans, events, and time
series into the Chrome trace-event format (``ph: "X"`` complete events,
``"C"`` counters, ``"i"`` instants) loadable in Perfetto or
``chrome://tracing``. One OS-level *process* per trace id; lanes
(*threads*) are allocated greedily so concurrent workers get their own
rows while a worker's phases nest inside it.
"""

from __future__ import annotations

import json
from typing import Optional


def round_for_json(value: Optional[float]) -> Optional[float]:
    """Round a float to 9 digits for canonical JSON (None passes through)."""
    return None if value is None else round(float(value), 9)


def round_floats(obj, digits: int = 9):
    """Recursively round every float in a JSON-ready structure."""
    if isinstance(obj, float):
        return round(obj, digits)
    if isinstance(obj, dict):
        return {k: round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, digits) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Serialize ``obj`` as byte-stable JSON (sorted keys, indent=2).

    Floats must already be rounded (:func:`round_floats` or
    :func:`round_for_json`) — rounding twice is a no-op, so callers that
    round field-by-field stay byte-identical.
    """
    return json.dumps(obj, sort_keys=True, indent=2)


# -- metrics snapshot ---------------------------------------------------------

def metrics_snapshot(recorder) -> dict:
    """JSON-ready snapshot of every instrument plus the event timeline."""
    snapshot = recorder.metrics.snapshot()
    snapshot["events"] = list(recorder.events)
    snapshot["span_count"] = len(recorder.spans)
    return round_floats(snapshot)


# -- Chrome trace events ------------------------------------------------------

def _us(t: float) -> float:
    """Virtual seconds → trace microseconds, rounded for byte stability."""
    return round(t * 1e6, 3)


def _alloc_lane(lanes: list[list[tuple[float, float]]], start: float,
                end: float, preferred: Optional[int]) -> int:
    """Pick a lane for [start, end): the preferred (parent's) lane when the
    interval nests or sits clear of everything already there, else the
    first conflict-free lane, else a new one. A placed interval conflicts
    only on *partial* overlap — containment either way renders as
    nesting, which is what we want."""
    def fits(lane: list[tuple[float, float]]) -> bool:
        for s, e in lane:
            if end <= s or start >= e:        # disjoint
                continue
            if s <= start and end <= e:       # nested inside existing
                continue
            if start <= s and e <= end:       # existing nested inside us
                continue
            return False
        return True

    order = list(range(len(lanes)))
    if preferred is not None:
        order.remove(preferred)
        order.insert(0, preferred)
    for i in order:
        if fits(lanes[i]):
            lanes[i].append((start, end))
            return i
    lanes.append([(start, end)])
    return len(lanes) - 1


def chrome_trace(recorder, trace_ids=None) -> dict:
    """Render a recorder's state as a Chrome trace-event document.

    ``trace_ids`` (an iterable of trace-id strings) restricts the export
    to those traces: only their spans are rendered, and the global
    event/counter rows are dropped — the shape ``repro trace --trace``
    and incident-bundle excerpt re-export want. ``None`` exports
    everything.
    """
    trace_events: list[dict] = []
    pids: dict[str, int] = {}
    lanes_by_pid: dict[int, list[list[tuple[float, float]]]] = {}
    lane_of_span: dict[tuple[str, int], int] = {}
    selected = None if trace_ids is None else set(trace_ids)
    spans = recorder.spans if selected is None \
        else [span for span in recorder.spans if span.trace_id in selected]

    max_t = 0.0
    for span in spans:
        if span.end is not None and span.end > max_t:
            max_t = span.end
        elif span.start > max_t:
            max_t = span.start

    for span in spans:
        pid = pids.get(span.trace_id)
        if pid is None:
            pid = pids[span.trace_id] = len(pids) + 1
            lanes_by_pid[pid] = []
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": span.trace_id},
            })
        end = span.end if span.end is not None else max_t
        preferred = lane_of_span.get((span.trace_id, span.parent_id)) \
            if span.parent_id is not None else None
        lane = _alloc_lane(lanes_by_pid[pid], span.start, end, preferred)
        lane_of_span[(span.trace_id, span.span_id)] = lane

        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(round_floats(span.attrs))
        if span.end is None:
            args["unfinished"] = True
        trace_events.append({
            "name": span.name, "cat": span.category, "ph": "X",
            "ts": _us(span.start), "dur": _us(end - span.start),
            "pid": pid, "tid": lane, "args": args,
        })

    if recorder.events and selected is None:
        trace_events.append({
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "events"},
        })
        for ev in recorder.events:
            ev_args = {k: v for k, v in ev.items()
                       if k not in ("t", "name", "category")}
            trace_events.append({
                "name": ev["name"], "cat": ev.get("category", "event"),
                "ph": "i", "ts": _us(ev["t"]), "pid": 0, "tid": 0,
                "s": "g", "args": round_floats(ev_args),
            })

    if selected is None:
        for name, series in sorted(recorder.metrics.series.items()):
            for t, v in series.points:
                trace_events.append({
                    "name": name, "cat": "metric", "ph": "C",
                    "ts": _us(t), "pid": 0, "tid": 0,
                    "args": {"value": round_for_json(v)},
                })

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: dict) -> dict:
    """Schema sanity check; raises ``ValueError`` on the first violation.

    Verifies the document shape, that every complete event carries the
    required fields, and that every span's ``parent_id`` refers to a span
    that exists in the same process. Returns per-phase event counts.
    """
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    span_ids: dict[int, set] = {}
    counts: dict[str, int] = {}
    for ev in events:
        ph = ev.get("ph")
        counts[ph] = counts.get(ph, 0) + 1
        if "name" not in ev or "pid" not in ev:
            raise ValueError(f"event missing name/pid: {ev!r}")
        if ph == "X":
            for key in ("ts", "dur", "tid", "args"):
                if key not in ev:
                    raise ValueError(f"X event missing {key!r}: {ev!r}")
            if ev["dur"] < 0:
                raise ValueError(f"negative duration: {ev!r}")
            span_ids.setdefault(ev["pid"], set()).add(ev["args"]["span_id"])
    for ev in events:
        if ev.get("ph") != "X":
            continue
        parent = ev["args"].get("parent_id")
        if parent is not None and parent not in span_ids[ev["pid"]]:
            raise ValueError(
                f"span {ev['args']['span_id']} ({ev['name']!r}) has "
                f"unknown parent {parent}")
    return counts
