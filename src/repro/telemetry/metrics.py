"""Typed metric instruments stamped on the virtual clock.

Four instrument kinds cover every telemetry need of the simulation:

* :class:`Counter` — a monotonically increasing count (events processed,
  cold starts, ``SlowDown`` emissions);
* :class:`Gauge` — a last-value-wins level with a high-watermark
  (concurrent executions, queue depth);
* :class:`TimeSeries` — (virtual-time, value) samples with optional
  minimum sample spacing and a hard point cap, so high-frequency probes
  (a token bucket draining during Figure 5) stay bounded in memory;
* :class:`LatencyHistogram` — a fixed log-bucketed latency
  distribution with deterministic percentiles, O(1) memory per
  observation; the snapshot reports its count and the
  :data:`HISTOGRAM_POINTS` percentiles.

Instruments are created lazily through a :class:`MetricRegistry` and are
identified by dotted names (``lambda.cold_starts``,
``shaper.sandbox-worker/in#0.level``). All state is plain Python — no
clock reads, no RNG, no events — so recording can never perturb the
simulation it observes.
"""

from __future__ import annotations

import math

#: Cap on stored samples per time series. Beyond it, samples are
#: counted in ``dropped`` instead of stored, so a runaway probe cannot
#: exhaust memory.
DEFAULT_MAX_POINTS = 8_192

#: Histogram range: 1 ms to ~10^4 s, 64 buckets per decade.
_LOG_MIN = -3.0
_LOG_MAX = 4.0
_BUCKETS_PER_DECADE = 64
_BUCKETS = int((_LOG_MAX - _LOG_MIN) * _BUCKETS_PER_DECADE)

#: Percentile points every histogram reduction reports.
HISTOGRAM_POINTS = (50.0, 95.0, 99.0)


class LatencyHistogram:
    """Fixed log-bucketed latency distribution with stable percentiles.

    Buckets span 1 ms to 10^4 s at 64 per decade (~3.7% relative
    resolution); out-of-range samples clamp to the edge buckets. The
    reported percentile is the upper edge of the bucket where the
    cumulative count crosses the rank — a deterministic value that
    merges associatively across shards.
    """

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts = [0] * (_BUCKETS + 2)
        self.total = 0

    def record(self, latency_s: float) -> None:
        if latency_s <= 0.0:
            index = 0
        else:
            position = (math.log10(latency_s) - _LOG_MIN) * _BUCKETS_PER_DECADE
            index = min(max(int(position) + 1, 0), _BUCKETS + 1)
        self.counts[index] += 1
        self.total += 1

    def merge(self, other: "LatencyHistogram") -> None:
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total

    def percentile(self, p: float) -> float:
        """Upper-edge latency of the bucket holding the ``p``-th centile."""
        if self.total == 0:
            return 0.0
        rank = math.ceil(self.total * p / 100.0)
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                if index == 0:
                    return 0.0
                exponent = _LOG_MIN + index / _BUCKETS_PER_DECADE
                return round(10.0 ** exponent, 9)
        return round(10.0 ** _LOG_MAX, 9)


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        self.value += n


class Gauge:
    """Last-observed level plus its high-watermark."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        """Record the current level (and update the watermark)."""
        self.value = value
        if value > self.peak:
            self.peak = value


class TimeSeries:
    """(t, value) samples on the virtual clock.

    ``min_dt`` drops samples closer than that to the previous *kept*
    sample (value changes are still visible at the next kept sample);
    :data:`DEFAULT_MAX_POINTS` caps storage, counting overflow in
    :attr:`dropped`.
    """

    __slots__ = ("name", "min_dt", "points", "dropped", "_last_t")

    def __init__(self, name: str, min_dt: float = 0.0) -> None:
        self.name = name
        self.min_dt = min_dt
        self.points: list[tuple[float, float]] = []
        self.dropped = 0
        self._last_t = float("-inf")

    def sample(self, t: float, value: float) -> None:
        """Record ``value`` at virtual time ``t`` (subject to spacing/cap)."""
        if t - self._last_t < self.min_dt:
            self.dropped += 1
            return
        if len(self.points) >= DEFAULT_MAX_POINTS:
            self.dropped += 1
            return
        self.points.append((t, value))
        self._last_t = t

    def values(self) -> list[float]:
        """The sampled values, in time order."""
        return [v for _, v in self.points]


class MetricRegistry:
    """Lazily creates and caches instruments by dotted name."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.series: dict[str, TimeSeries] = {}
        self.histograms: dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def timeseries(self, name: str, min_dt: float = 0.0) -> TimeSeries:
        """The time series called ``name`` (created on first use).

        ``min_dt`` only applies at creation time; later lookups return
        the existing series unchanged.
        """
        instrument = self.series.get(name)
        if instrument is None:
            instrument = self.series[name] = TimeSeries(name, min_dt=min_dt)
        return instrument

    def histogram(self, name: str) -> LatencyHistogram:
        """The histogram called ``name`` (created on first use)."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = LatencyHistogram()
        return instrument

    def snapshot(self) -> dict:
        """JSON-ready dict of every instrument's current state."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: {"value": g.value, "peak": g.peak}
                       for name, g in sorted(self.gauges.items())},
            "series": {name: {"points": [[t, v] for t, v in s.points],
                              "dropped": s.dropped}
                       for name, s in sorted(self.series.items())},
            "histograms": {
                name: {"count": h.total,
                       **{f"p{point:g}": h.percentile(point)
                          for point in HISTOGRAM_POINTS}}
                for name, h in sorted(self.histograms.items())},
        }
