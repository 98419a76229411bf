"""Text dashboard: a terminal rendering of a recorder's state.

Counters and gauges as aligned tables, time series as unicode
sparklines, the busiest spans by total time. Used by the ``repro
metrics`` CLI; pure string formatting, no simulation imports.
"""

from __future__ import annotations

_BLOCKS = "▁▂▃▄▅▆▇█"
#: Span kinds listed, busiest first.
TOP_SPANS = 12


def sparkline(values, width: int = 48) -> str:
    """Render ``values`` as a fixed-width unicode sparkline."""
    if not values:
        return ""
    if len(values) > width:
        # Downsample by bucketing; keep each bucket's mean.
        step = len(values) / width
        values = [sum(values[int(i * step):int((i + 1) * step) or 1])
                  / max(1, len(values[int(i * step):int((i + 1) * step) or 1]))
                  for i in range(width)]
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[0] * len(values)
    return "".join(_BLOCKS[min(len(_BLOCKS) - 1,
                               int((v - lo) / span * len(_BLOCKS)))]
                   for v in values)


def render_dashboard(recorder, series_width: int = 48) -> str:
    """Multi-section text dashboard for one recorder."""
    lines: list[str] = []
    metrics = recorder.metrics

    if metrics.counters:
        lines.append("== counters ==")
        width = max(len(n) for n in metrics.counters)
        for name in sorted(metrics.counters):
            lines.append(f"  {name:<{width}}  "
                         f"{metrics.counters[name].value:>12}")

    if metrics.gauges:
        lines.append("== gauges ==")
        width = max(len(n) for n in metrics.gauges)
        for name in sorted(metrics.gauges):
            g = metrics.gauges[name]
            lines.append(f"  {name:<{width}}  value={g.value:>12.3f}  "
                         f"peak={g.peak:>12.3f}")

    if metrics.histograms:
        lines.append("== latency percentiles ==")
        width = max(len(n) for n in metrics.histograms)
        for name in sorted(metrics.histograms):
            h = metrics.histograms[name]
            lines.append(
                f"  {name:<{width}}  n={h.total:>8}  "
                f"p50={h.percentile(50.0):>9.4f}s  "
                f"p95={h.percentile(95.0):>9.4f}s  "
                f"p99={h.percentile(99.0):>9.4f}s")

    if metrics.series:
        lines.append("== time series ==")
        for name in sorted(metrics.series):
            s = metrics.series[name]
            values = s.values()
            if not values:
                continue
            lo, hi = min(values), max(values)
            extra = f" dropped={s.dropped}" if s.dropped else ""
            lines.append(f"  {name} [{len(values)} pts, "
                         f"min={lo:.3f}, max={hi:.3f}{extra}]")
            lines.append(f"    {sparkline(values, series_width)}")

    if recorder.spans:
        lines.append(f"== spans ({len(recorder.spans)} total, "
                     f"top {TOP_SPANS} by total time) ==")
        totals: dict[tuple[str, str], tuple[float, int]] = {}
        for span in recorder.spans:
            key = (span.category, span.name)
            total, count = totals.get(key, (0.0, 0))
            totals[key] = (total + span.duration, count + 1)
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1][0], kv[0]))
        for (category, name), (total, count) in ranked[:TOP_SPANS]:
            lines.append(f"  {category + ':' + name:<42} "
                         f"n={count:>5}  total={total:>10.3f}s  "
                         f"mean={total / count:>8.4f}s")

    if recorder.events:
        lines.append(f"== events ({len(recorder.events)}) ==")
        by_name: dict[str, int] = {}
        for ev in recorder.events:
            by_name[ev["name"]] = by_name.get(ev["name"], 0) + 1
        for name in sorted(by_name):
            lines.append(f"  {name:<42} {by_name[name]:>6}")

    return "\n".join(lines) if lines else "(no telemetry recorded)"
