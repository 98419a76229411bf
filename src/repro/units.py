"""Byte, time, and rate unit constants used across the library.

All simulation-internal quantities are plain floats in **bytes** and
**seconds**; these constants make call sites read like the paper
("64 * MiB", "1.2 * GiB_PER_S").
"""

from __future__ import annotations

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

KiB = 1024
MiB = 1024 ** 2
GiB = 1024 ** 3
TiB = 1024 ** 4

MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
MONTH = 30 * DAY

#: Network rates quoted by AWS are decimal gigabits per second.
Gbps = 1e9 / 8.0
Mbps = 1e6 / 8.0


def fmt_bytes(num_bytes: float) -> str:
    """Human-readable binary-unit formatting of a byte count."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{value:.0f} B"
        value /= 1024.0
    raise AssertionError("unreachable")


def fmt_duration(seconds: float) -> str:
    """Human-readable duration (s / min / h / d)."""
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 2 * HOUR:
        return f"{seconds / MINUTE:.0f}min"
    if seconds < 2 * DAY:
        return f"{seconds / HOUR:.0f}h"
    return f"{seconds / DAY:.0f}d"
