"""Unit tests for the typed metric instruments and the registry."""

from unittest import mock

from repro.telemetry import Counter, Gauge, MetricRegistry, TimeSeries, metrics


def test_counter_increments():
    counter = Counter("test.count")
    assert counter.value == 0
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_gauge_tracks_peak():
    gauge = Gauge("test.level")
    gauge.set(3.0)
    gauge.set(9.0)
    gauge.set(2.0)
    assert gauge.value == 2.0
    assert gauge.peak == 9.0


def test_timeseries_basic_sampling():
    series = TimeSeries("test.series")
    series.sample(0.0, 1.0)
    series.sample(1.0, 2.0)
    assert series.points == [(0.0, 1.0), (1.0, 2.0)]
    assert series.values() == [1.0, 2.0]
    assert series.dropped == 0


def test_timeseries_min_dt_drops_close_samples():
    series = TimeSeries("test.series", min_dt=1.0)
    series.sample(0.0, 1.0)
    series.sample(0.5, 2.0)   # too close: dropped
    series.sample(1.0, 3.0)   # exactly min_dt later: kept
    assert series.values() == [1.0, 3.0]
    assert series.dropped == 1


def test_timeseries_max_points_caps_storage():
    series = TimeSeries("test.series")
    with mock.patch.object(metrics, "DEFAULT_MAX_POINTS", 3):
        for i in range(10):
            series.sample(float(i), float(i))
    assert len(series.points) == 3
    assert series.dropped == 7
    assert series.values() == [0.0, 1.0, 2.0]


def test_registry_caches_by_name():
    registry = MetricRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.timeseries("c") is registry.timeseries("c")
    # min_dt only applies at creation time.
    series = registry.timeseries("d", min_dt=5.0)
    assert registry.timeseries("d", min_dt=0.0) is series
    assert series.min_dt == 5.0


def test_registry_snapshot_is_sorted_and_json_ready():
    import json

    registry = MetricRegistry()
    registry.counter("z.count").inc(2)
    registry.counter("a.count").inc()
    registry.gauge("m.gauge").set(4.0)
    registry.timeseries("s.series").sample(1.5, 2.5)
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a.count", "z.count"]
    assert snapshot["counters"]["z.count"] == 2
    assert snapshot["gauges"]["m.gauge"] == {"value": 4.0, "peak": 4.0}
    assert snapshot["series"]["s.series"]["points"] == [[1.5, 2.5]]
    assert snapshot["series"]["s.series"]["dropped"] == 0
    json.dumps(snapshot)  # must serialize without custom encoders
