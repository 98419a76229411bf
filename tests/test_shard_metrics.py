"""Shard tally tests: histogram, per-shard reduction, fleet roll-up."""

import math

from repro.serve.gateway import QueryGateway, QueryRequest, Tenant
from repro.serve.metrics import ServingTally, roll_up
from repro.shard.replay import _USD_PER_SLOT_SECOND, ManualClock, _complete
from repro.telemetry import LatencyHistogram


def complete(metrics, latency_s, wait_s=0.0):
    """Serve one request submitted at 0 that waited ``wait_s`` and
    finished at ``latency_s``, as the replay does."""
    request = QueryRequest(tenant="t0", plan=latency_s - wait_s,
                           submitted_at=0.0, seq=0, priority=1)
    return _complete(metrics, request, wait_s)


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


def shard_tally(slo_latency_s=math.inf):
    return ServingTally(slo_latency_s, LatencyHistogram())


class TestShardMetrics:
    def test_counters_and_slo_tracking(self):
        metrics = shard_tally(slo_latency_s=0.05)
        gateway = QueryGateway(
            ManualClock(), metrics=metrics, shard_id="s0",
            default_tenant=Tenant(name="__default__", max_queue_depth=1))
        for tenant in ("t0", "t1", "t2"):
            assert gateway.submit(tenant, 1.0) is not None
        assert complete(metrics, 0.010) == 0.010
        assert complete(metrics, 0.500, wait_s=0.125) == 0.500
        assert gateway.submit("t2", 1.0) is None  # t2's queue is full
        assert gateway.tallies == {}  # the shard's tally counts them all
        assert metrics.offered == 4
        assert metrics.completed == 2
        assert metrics.shed == 1
        assert metrics.within_slo == 1
        assert metrics.latency.total == 2
        assert metrics.queue_wait_sum == 0.125
        assert metrics.cost_usd == 0.010 * _USD_PER_SLOT_SECOND \
            + 0.375 * _USD_PER_SLOT_SECOND
        summary, = roll_up({"s0": metrics}, pending=0,
                           recovered=0)["per_shard"]
        assert summary["shard"] == "s0"
        assert summary["offered"] == 4
        assert summary["failed"] == summary["recovered"] == 0


class TestFleetRollUp:
    def test_roll_up_reconciles_and_merges_latency(self):
        shards = {}
        for shard_id in ("s0", "s1"):
            metrics = shard_tally(slo_latency_s=1.0)
            for index in range(10):
                metrics.offered += 1
                complete(metrics, 0.010 * (index + 1))
            metrics.offered += 1
            metrics.shed += 1
            shards[shard_id] = metrics
        report = roll_up(shards, pending=0, recovered=4)
        assert report["balanced"] is True
        assert report["offered"] == 22
        assert report["completed"] == 20
        assert report["shed"] == 2
        assert report["recovered"] == 4
        assert report["slo_attainment"] == round(20 / 22, 9)
        assert [row["shard"] for row in report["per_shard"]] == ["s0", "s1"]
        merged = LatencyHistogram()
        for metrics in shards.values():
            merged.merge(metrics.latency)
        assert report["latency_p99"] == merged.percentile(99.0)

    def test_pending_closes_the_mid_run_equation(self):
        metrics = shard_tally()
        metrics.offered += 5
        complete(metrics, 0.01)
        assert roll_up({"s0": metrics}, pending=4, recovered=0)["balanced"]
        assert not roll_up({"s0": metrics}, pending=0,
                           recovered=0)["balanced"]
