"""Text-mode result rendering.

The original framework hands JSON results to a matplotlib plotter; in
this offline reproduction the plotter renders ASCII time series and
aligned tables — good enough to see the shapes the paper's
figures show (burst cliffs, staircases, crossovers) in a terminal or a
log file.
"""

from __future__ import annotations

from typing import Sequence

#: Plot columns of every chart (an 80-column terminal less the axis).
CHART_WIDTH = 72


def ascii_timeseries(points: Sequence[tuple[float, float]],
                     height: int = 12, title: str = "") -> str:
    """Render (x, y) points as an ASCII chart."""
    if not points:
        return f"{title}\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    y_max = max(ys) or 1.0
    y_min = min(0.0, min(ys))
    x_min, x_max = min(xs), max(xs)
    span_x = (x_max - x_min) or 1.0
    span_y = (y_max - y_min) or 1.0
    width = CHART_WIDTH
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = int((x - x_min) / span_x * (width - 1))
        row = int((y - y_min) / span_y * (height - 1))
        grid[height - 1 - row][col] = "*"
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        value = y_max - i * span_y / (height - 1)
        lines.append(f"{value:12.3g} |{''.join(row)}")
    lines.append(" " * 13 + "+" + "-" * width)
    lines.append(f"{'':13}{x_min:<12.4g}{'':{max(0, width - 24)}}{x_max:>12.4g}")
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render rows as an aligned text table (paper-style)."""
    columns = [[str(h)] for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row!r} does not match headers {headers!r}")
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                columns[i].append(f"{cell:,.4g}")
            else:
                columns[i].append(str(cell))
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = [title] if title else []
    header_line = "  ".join(h.ljust(w) for h, w in
                            zip([c[0] for c in columns], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for r in range(1, len(columns[0])):
        lines.append("  ".join(columns[i][r].rjust(widths[i])
                               for i in range(len(columns))))
    return "\n".join(lines)
