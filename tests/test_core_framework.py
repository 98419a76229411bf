"""Tests for the Skyrise evaluation framework (configs, driver, plotter)."""

import json
from dataclasses import asdict

import pytest

from repro import units
from repro.core import (
    CloudSim,
    Driver,
    ExperimentConfig,
    ExperimentResult,
    ascii_timeseries,
    format_table,
)
from repro.core.micro import (
    measure_idle_lifetime,
    measure_startup_latency,
    run_function_network_burst,
    run_storage_iops,
    run_storage_latency,
    run_storage_throughput,
)
from repro.core.micro.network import lambda_network_profile


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentConfig(name="x", kind="quantum-annealing")

    def test_json_roundtrip(self):
        config = ExperimentConfig(name="net", kind="network-burst",
                                  parameters={"duration": 5.0}, seed=3)
        back = ExperimentConfig.from_json(json.dumps(asdict(config)))
        assert back == config


class TestResults:
    def test_save_and_load(self, tmp_path):
        result = ExperimentResult(name="r", kind="network-burst",
                                  metrics={"x": 1.5}, cost_usd=0.2)
        result.add_series("s", [0, 1], [2.0, 3.0])
        path = result.save(tmp_path / "out" / "r.json")
        loaded = json.loads(path.read_text())
        assert loaded["metrics"] == {"x": 1.5}
        assert loaded["series"]["s"] == [[0.0, 2.0], [1.0, 3.0]]
        assert loaded["cost_usd"] == 0.2


class TestPlotter:
    def test_timeseries_renders(self):
        chart = ascii_timeseries([(0, 0.0), (1, 5.0), (2, 2.5)],
                                 height=5, title="demo")
        assert "demo" in chart
        assert "*" in chart

    def test_timeseries_empty(self):
        assert "(no data)" in ascii_timeseries([])

    def test_table_alignment_and_validation(self):
        table = format_table(["q", "runtime"], [["q6", 5.2], ["q12", 18.1]])
        assert "q6" in table and "18.1" in table
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestCloudSim:
    def test_services_cached(self):
        sim = CloudSim(seed=0)
        assert sim.s3() is sim.s3()
        assert sim.service("s3-standard") is sim.s3()
        assert sim.efs(2) is sim.service("efs-2")

    def test_unknown_service_rejected(self):
        with pytest.raises(KeyError):
            CloudSim().service("glacier")

    def test_vpc_link_created_on_demand(self):
        assert CloudSim(use_vpc=True).vpc_link is not None
        assert CloudSim().vpc_link is None


class TestNetworkMicrobenchmarks:
    def test_function_burst_profile(self):
        sim = CloudSim(seed=1)
        first, second = run_function_network_burst(sim, duration=3.0,
                                                   break_s=2.0)
        profile = first.burst_profile()
        assert profile.burst_rate == pytest.approx(1.2 * units.GiB, rel=0.1)
        assert profile.baseline_rate == pytest.approx(75 * units.MiB,
                                                      rel=0.25)
        # Second burst is smaller: half-refilled bucket.
        assert second.burst_profile().bucket_bytes < profile.bucket_bytes


class TestStorageMicrobenchmarks:
    def test_throughput_s3_scales_linearly(self):
        sim = CloudSim(seed=2)
        one = run_storage_throughput(sim, "s3-standard", clients=1,
                                     object_bytes=64 * units.MiB)
        many = run_storage_throughput(sim, "s3-standard", clients=128,
                                      object_bytes=64 * units.MiB)
        assert many.achieved == pytest.approx(128 * one.achieved, rel=0.01)
        assert 150 <= many.achieved_gib_s <= 400  # ~250 GiB/s scale

    def test_throughput_dynamodb_saturated_by_one_client(self):
        sim = CloudSim(seed=2)
        one = run_storage_throughput(sim, "dynamodb", clients=1,
                                     object_bytes=400 * units.KiB)
        many = run_storage_throughput(sim, "dynamodb", clients=16,
                                      object_bytes=400 * units.KiB)
        assert one.achieved == pytest.approx(380 * units.MiB, rel=0.05)
        assert many.achieved == pytest.approx(one.achieved, rel=0.05)

    def test_throughput_efs_converges_to_quota(self):
        sim = CloudSim(seed=2)
        result = run_storage_throughput(sim, "efs-1", clients=64,
                                        object_bytes=4 * units.MiB)
        assert result.achieved == pytest.approx(20 * units.GiB, rel=0.05)
        writes = run_storage_throughput(sim, "efs-1", clients=64,
                                        object_bytes=4 * units.MiB,
                                        direction="write")
        assert writes.achieved == pytest.approx(5 * units.GiB, rel=0.05)

    def test_iops_ordering_matches_figure9(self):
        sim = CloudSim(seed=3)
        express = run_storage_iops(sim, "s3-express")
        standard = run_storage_iops(CloudSim(seed=3), "s3-standard")
        ddb = run_storage_iops(CloudSim(seed=3), "dynamodb")
        efs = run_storage_iops(CloudSim(seed=3), "efs-1")
        assert express.achieved_read > ddb.achieved_read > efs.achieved_read
        assert efs.achieved_read > standard.achieved_read
        assert express.achieved_read == pytest.approx(220_000)
        assert standard.achieved_read == pytest.approx(5_500)

    def test_latency_experiment_percentiles(self):
        sim = CloudSim(seed=4)
        outcome = run_storage_latency(sim, "s3-standard",
                                      request_count=200_000)
        assert outcome["read"]["p50"] == pytest.approx(0.027, rel=0.1)
        assert outcome["read"]["max"] > 20 * outcome["read"]["p50"]


class TestMinimalFunction:
    def test_startup_latency_cold_exceeds_warm(self):
        sim = CloudSim(seed=5)
        result = measure_startup_latency(sim, binary_bytes=units.MiB,
                                         repetitions=10)
        # Coldstarts (~0.1 s for a 1 MiB binary) dominate the ~25 ms
        # warm routing overhead.
        assert result.cold_median > 3 * result.warm_median
        assert result.warm_median < 0.04

    def test_idle_lifetime_decreases_with_gap(self):
        sim = CloudSim(seed=6)
        fractions = measure_idle_lifetime(sim, gaps_s=[30.0, 3600.0])
        assert fractions[30.0] >= fractions[3600.0]
        assert fractions[30.0] >= 0.8
        assert fractions[3600.0] <= 0.2


class TestDriver:
    def test_driver_runs_network_burst_config(self):
        driver = Driver()
        result = driver.run(ExperimentConfig(
            name="fig5", kind="network-burst",
            parameters={"duration": 2.0, "break_s": 1.0}))
        assert result.metrics["burst_rate_gib_s"] == pytest.approx(1.2,
                                                                   rel=0.1)
        assert "first_burst" in result.series
        assert result.cost_usd > 0
        # The bucket refills only partly over the break (Figure 5).
        assert 0 < result.metrics["second_bucket_mib"] \
            < result.metrics["bucket_mib"]

    def test_lambda_comparison_matches_lambda_profile(self):
        result = Driver().run(ExperimentConfig(
            name="fig6-lambda", kind="network-comparison",
            parameters={"instance": "lambda"}, seed=6))
        profile = lambda_network_profile(CloudSim(seed=6))
        assert result.metrics["bucket_gib"] == profile.bucket_bytes / units.GiB
        assert result.metrics["burst_rate_gib_s"] == \
            profile.burst_rate / units.GiB
        assert result.metrics["baseline_rate_gib_s"] == \
            profile.baseline_rate / units.GiB

    def test_driver_runs_storage_latency_config(self):
        driver = Driver()
        result = driver.run(ExperimentConfig(
            name="fig10", kind="storage-latency",
            parameters={"service": "dynamodb", "requests": 50_000}))
        assert result.metrics["read_p50_ms"] == pytest.approx(4.0, rel=0.15)

    def test_driver_rejects_unhandled_kind(self):
        driver = Driver()
        config = ExperimentConfig(name="x", kind="query")
        config.kind = "mystery"  # bypass validation to hit the driver path
        with pytest.raises(ValueError, match="cannot run"):
            driver.run(config)
