"""Resource-attribution profiler: span trees folded into stage profiles.

The engine already emits a full span hierarchy per query (query →
coordinate → stage → worker → phase/operator, with storage and faas
spans hanging off the workers). This module folds that tree into
per-stage **profiles**: where each stage's worker-seconds went
(compute, network, storage wait, sandbox startup), how many bytes and
requests it moved per storage service, and what it cost — compute via
the Lambda price sheet, storage via per-service request/transfer
pricing (:func:`repro.pricing.calculator.stage_cost`).

The output (schema ``repro.obs.profile/1``) is the machine-readable
feed for the cost-based placement/tiering optimizer (deferred in the
ROADMAP): a cost model per stage, not a flame graph per run. It is a
pure fold over recorded spans — same trace in, same bytes out.

The same tree answers Section 3.2's per-worker questions: the rows of
:func:`worker_timeline` feed :func:`render_gantt`, :func:`skew`,
:func:`stragglers` and :func:`makespan`.

Phase attribution:

* ``compute`` — the worker's ``phase compute`` spans;
* ``network`` — ``phase shuffle_read`` (inter-worker data motion);
* ``storage_wait`` — ``phase scan`` + ``phase write`` (external
  storage on both ends of the pipe);
* ``startup`` — ``coldstart``/``warmstart`` sandbox spans under the
  stage's invokes;
* ``other`` — worker time not covered above (scheduling slack,
  attempt overhead).
"""

from __future__ import annotations

from operator import itemgetter
from statistics import median

from repro import units
from repro.pricing.calculator import stage_cost
from repro.telemetry.export import round_floats

PROFILE_SCHEMA = "repro.obs.profile/1"
#: A worker is a straggler past this multiple of its stage's median.
STRAGGLER_FACTOR = 2.0

#: phase-span suffix → share bucket.
_PHASE_BUCKET = {
    "compute": "compute",
    "shuffle_read": "network",
    "scan": "storage_wait",
    "write": "storage_wait",
}


def _index(spans):
    """(by_id, children) maps over finished spans of every trace."""
    by_id: dict[tuple[str, int], object] = {}
    children: dict[tuple[str, int], list] = {}
    for span in spans:
        by_id[(span.trace_id, span.span_id)] = span
        if span.parent_id is not None:
            children.setdefault((span.trace_id, span.parent_id),
                                []).append(span)
    return by_id, children


def _subtree(span, children):
    """Iterate a span's descendants (the span itself excluded)."""
    stack = list(children.get((span.trace_id, span.span_id), ()))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children.get((node.trace_id, node.span_id), ()))


def _profile_stage(stage, children) -> dict:
    """Fold one stage span's subtree into a profile dict."""
    workers = 0
    worker_s = 0.0
    bytes_read = bytes_written = rows_out = 0
    phases: dict[str, float] = {}
    buckets = {"compute": 0.0, "network": 0.0, "storage_wait": 0.0}
    startup_s = 0.0
    cold_starts = warm_starts = 0
    storage: dict[str, dict] = {}
    operators: dict[str, dict] = {}
    invocations: list[tuple[float, float]] = []

    for span in _subtree(stage, children):
        category = span.category
        if category == "worker":
            workers += 1
            worker_s += span.duration
            bytes_read += span.attrs.get("bytes_read", 0)
            bytes_written += span.attrs.get("bytes_written", 0)
            rows_out += span.attrs.get("rows_out", 0)
        elif category == "phase":
            # "phase scan" → "scan"
            name = span.name.split(" ", 1)[-1]
            phases[name] = phases.get(name, 0.0) + span.duration
            bucket = _PHASE_BUCKET.get(name)
            if bucket is not None:
                buckets[bucket] += span.duration
        elif category == "operator":
            entry = operators.setdefault(
                span.name, {"n": 0, "total_s": 0.0, "rows_out": 0})
            entry["n"] += 1
            entry["total_s"] += span.duration
            entry["rows_out"] += span.attrs.get("rows_out", 0)
        elif category == "storage":
            service = span.attrs.get("service", "s3-standard")
            entry = storage.setdefault(service, {
                "reads": 0, "read_bytes": 0, "writes": 0, "write_bytes": 0,
                "wait_s": 0.0})
            entry["wait_s"] += span.duration
            size = span.attrs.get("bytes", 0)
            count = span.attrs.get("chunks", 1)
            if span.name == "storage.write":
                entry["writes"] += count
                entry["write_bytes"] += size
            else:
                entry["reads"] += count
                entry["read_bytes"] += size
        elif category == "faas":
            if span.name.startswith("invoke "):
                memory_mb = span.attrs.get("memory_mb")
                if memory_mb is not None:
                    invocations.append(
                        (memory_mb * units.MiB, span.duration))
            elif span.name == "coldstart":
                startup_s += span.duration
                cold_starts += 1
            elif span.name == "warmstart":
                startup_s += span.duration
                warm_starts += 1

    cost = stage_cost(
        invocations,
        {s: (e["reads"], e["read_bytes"]) for s, e in storage.items()},
        {s: (e["writes"], e["write_bytes"]) for s, e in storage.items()})

    attributed = sum(buckets.values()) + startup_s
    denominator = max(worker_s, attributed)
    shares = {bucket: (value / denominator if denominator else 0.0)
              for bucket, value in buckets.items()}
    shares["startup"] = startup_s / denominator if denominator else 0.0
    shares["other"] = max(0.0, 1.0 - sum(shares.values())) \
        if denominator else 0.0

    return {
        "wall_s": stage.duration,
        "workers": workers,
        "worker_s": worker_s,
        "phases": dict(sorted(phases.items())),
        "shares": shares,
        "startup_s": startup_s,
        "cold_starts": cold_starts,
        "warm_starts": warm_starts,
        "bytes_read": bytes_read,
        "bytes_written": bytes_written,
        "rows_out": rows_out,
        "storage": dict(sorted(storage.items())),
        "operators": dict(sorted(operators.items())),
        "cost": cost,
    }


def profile_spans(spans) -> dict:
    """Fold recorded spans into the per-query, per-stage profile feed.

    Accepts any iterable of finished :class:`~repro.telemetry.spans.Span`
    objects (typically ``recorder.spans``). Traces without stage spans
    (futures jobs, serving-only traces) simply contribute nothing.
    """
    _, children = _index(spans)
    queries: dict[str, dict] = {}
    totals = {"compute_usd": 0.0, "storage_usd": 0.0, "total_usd": 0.0}
    for span in spans:
        if span.category != "stage":
            continue
        query_key = span.trace_id
        stages = queries.setdefault(query_key, {})
        profile = _profile_stage(span, children)
        stages[span.attrs.get("pipeline", span.name)] = profile
        for key in totals:
            totals[key] += profile["cost"][key]
    return round_floats({
        "schema": PROFILE_SCHEMA,
        "queries": {key: {"stages": dict(sorted(stages.items()))}
                    for key, stages in sorted(queries.items())},
        "stage_count": sum(len(q) for q in queries.values()),
        "cost": totals,
    })


def profile_recorder(recorder) -> dict:
    """Convenience wrapper: profile everything a recorder captured."""
    return profile_spans(recorder.spans)


def worker_timeline(spans) -> dict[str, list[tuple]]:
    """One ``(fragment, requested, started, finished, marker)`` row per
    returned worker invocation, per pipeline (in order of first finish)
    and in fragment order. The ``invoke`` span gives requested/finished,
    its ``coldstart``/``warmstart`` child started, the ``worker`` span
    pipeline, fragment, attempt and hedged; marker precedence is hedged
    ``h`` > retry ``r`` > cold ``C`` > warm ``w``."""
    by_id, children = _index(spans)
    rows = []
    for span in spans:
        if span.category != "worker" or span.end is None:
            continue  # a crashed or reclaimed attempt returned nothing
        invoke = by_id[(span.trace_id, span.parent_id)]
        [startup] = [child for child in children[(span.trace_id,
                                                  invoke.span_id)]
                     if child.name in ("coldstart", "warmstart")]
        marker = ("h" if span.attrs.get("hedged")
                  else "r" if span.attrs.get("attempt")
                  else "C" if startup.name == "coldstart" else "w")
        rows.append((span.attrs["pipeline"], (
            span.attrs["fragment"], invoke.start, startup.end, invoke.end,
            marker)))
    timeline: dict[str, list[tuple]] = {}
    for pipeline, row in sorted(rows, key=lambda entry: entry[1][3]):
        timeline.setdefault(pipeline, []).append(row)
    return {pipeline: sorted(stage, key=itemgetter(0))
            for pipeline, stage in timeline.items()}


def skew(rows) -> float:
    """Max/median handler time of one stage's rows (1.0 = even)."""
    durations = [row[3] - row[2] for row in rows] or [1.0]
    return max(durations) / max(median(durations), 1e-12)


def stragglers(rows) -> list[tuple]:
    """Rows whose handler ran over :data:`STRAGGLER_FACTOR` x the stage
    median."""
    if not rows:
        return []
    cutoff = STRAGGLER_FACTOR * median(row[3] - row[2] for row in rows)
    return [row for row in rows if row[3] - row[2] > cutoff]


def makespan(timeline) -> float:
    """First request to last finish across every worker."""
    rows = [row for stage in timeline.values() for row in stage]
    return (max(row[3] for row in rows) - min(row[1] for row in rows)
            if rows else 0.0)


def render_gantt(spans, width: int = 64) -> str:
    """ASCII Gantt chart, one row per worker invocation grouped by
    stage: '.' queueing/startup, '#' handler, then the marker."""
    timeline = worker_timeline(spans)
    title = next((span.name for span in spans if span.category == "query"),
                 "workers")
    if not timeline:
        return f"{title}: (no worker spans)"
    t0 = min(row[1] for stage in timeline.values() for row in stage)
    scale = makespan(timeline) or 1.0
    lines = [f"{title}: {scale:.3f}s total"]
    for pipeline, stage in timeline.items():
        lines.append(f"[{pipeline}]")
        for fragment, *times, marker in stage:
            start, init_end, end = (int((t - t0) / scale * (width - 1))
                                    for t in times)
            row = [" "] * width
            for i in range(start, max(init_end, start + 1)):
                row[i] = "."
            for i in range(init_end, max(end, init_end) + 1):
                row[i] = "#"
            lines.append(f"  {fragment:>4} {marker} |{''.join(row)}|")
    return "\n".join(lines)
