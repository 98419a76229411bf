"""Shard metrics tests: histogram, per-shard reduction, fleet roll-up."""

from repro.serve.metrics import CompletedQuery
from repro.shard import FleetMetrics, ShardMetrics
from repro.telemetry import LatencyHistogram


def completed(latency_s, wait_s=0.0, cost=0.001, retries=0):
    return CompletedQuery(
        tenant="t0", query_id="q0", submitted_at=0.0, started_at=wait_s,
        finished_at=latency_s, runtime=latency_s - wait_s, cost_usd=cost,
        retries=retries, hedges=0)


class TestLatencyHistogram:
    def test_percentiles_are_upper_edges_and_monotone(self):
        histogram = LatencyHistogram()
        for latency in (0.010, 0.020, 0.040, 0.080, 1.0):
            histogram.record(latency)
        p50 = histogram.percentile(50.0)
        p99 = histogram.percentile(99.0)
        # Upper-edge estimate: at most ~3.7% above the true sample.
        assert 0.040 <= p50 <= 0.044
        assert 1.0 <= p99 <= 1.05
        assert p50 <= p99

    def test_out_of_range_samples_clamp(self):
        histogram = LatencyHistogram()
        histogram.record(0.0)
        histogram.record(-1.0)
        histogram.record(1e9)
        assert histogram.total == 3
        assert histogram.percentile(1.0) == 0.0
        assert histogram.percentile(100.0) >= 10.0 ** 4

    def test_merge_is_associative_with_recording(self):
        """Shard-merged percentiles equal single-histogram percentiles."""
        one = LatencyHistogram()
        left, right = LatencyHistogram(), LatencyHistogram()
        for index in range(200):
            latency = 0.001 * (index + 1)
            one.record(latency)
            (left if index % 2 else right).record(latency)
        left.merge(right)
        for p in (1.0, 50.0, 90.0, 99.0):
            assert left.percentile(p) == one.percentile(p)

    def test_empty_percentile_is_zero(self):
        assert LatencyHistogram().percentile(99.0) == 0.0


class TestShardMetrics:
    def test_counters_and_slo_tracking(self):
        metrics = ShardMetrics(shard_id="s0", slo_latency_s=0.05)
        metrics.record_offered("t0")
        metrics.record_offered("t1")
        metrics.record_offered("t2")
        metrics.record_completion(completed(0.010))
        metrics.record_completion(completed(0.500, retries=1))
        metrics.record_shed("t2")
        assert metrics.offered == 3
        assert metrics.completed == 2
        assert metrics.shed == 1
        assert metrics.within_slo == 1
        assert metrics.recovered == 1  # the retried completion
        summary = metrics.summary()
        assert summary["shard"] == "s0"
        assert summary["offered"] == 3
        assert summary["cost_usd"] == 0.002


class TestFleetRollUp:
    def test_roll_up_reconciles_and_merges_latency(self):
        fleet = FleetMetrics()
        shards = []
        for shard_id in ("s0", "s1"):
            metrics = ShardMetrics(shard_id=shard_id, slo_latency_s=1.0)
            for index in range(10):
                metrics.record_offered("t")
                metrics.record_completion(completed(0.010 * (index + 1)))
            metrics.record_offered("t")
            metrics.record_shed("t")
            shards.append(metrics)
        fleet.recovered_requests = 4
        report = fleet.roll_up(shards, pending=0)
        assert report.balanced
        assert report.offered == 22
        assert report.completed == 20
        assert report.shed == 2
        assert report.recovered == 4
        assert report.slo_attainment == 20 / 22
        assert len(report.per_shard) == 2
        assert report.to_dict()["balanced"] is True

    def test_pending_closes_the_mid_run_equation(self):
        fleet = FleetMetrics()
        metrics = ShardMetrics()
        for _ in range(5):
            metrics.record_offered("t")
        metrics.record_completion(completed(0.01))
        report = fleet.roll_up([metrics], pending=4)
        assert report.balanced
        assert not fleet.roll_up([metrics], pending=0).balanced
