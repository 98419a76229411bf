"""Tests for the CLI, arrival workloads, and small utility surfaces."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import CloudSim
from repro.engine.queries import tpch_q6
from repro.network.probe import ProbeSample, ProbeSeries
from repro.storage.base import FluidAdmission, RequestStats, RequestType, \
    _payload_size
from repro.workloads import poisson_arrivals, run_arrival_workload


class TestCli:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5-function-burst" in out
        assert "network-burst" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99-quantum"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_predefined_saves_json(self, tmp_path, capsys):
        code = main(["--output", str(tmp_path), "run",
                     "startup-small-binary"])
        assert code == 0
        saved = json.loads((tmp_path / "startup-small-binary.json")
                           .read_text())
        assert saved["kind"] == "function-startup"
        assert "cold_median_ms" in saved["metrics"]

    def test_run_config_file(self, tmp_path):
        config = {
            "name": "custom-latency", "kind": "storage-latency",
            "parameters": {"service": "dynamodb", "requests": 10_000},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = main(["--output", str(tmp_path), "run", str(config_path)])
        assert code == 0
        assert (tmp_path / "custom-latency.json").exists()


class TestPoissonArrivals:
    def test_rate_matches_expectation(self):
        rng = np.random.default_rng(0)
        window = 3_600.0
        arrivals = poisson_arrivals(rng, rate_per_hour=120.0,
                                    window_s=window)
        assert len(arrivals) == pytest.approx(120, abs=35)
        assert all(0 <= t < window for t in arrivals)
        assert arrivals == sorted(arrivals)

    def test_invalid_rate_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, rate_per_hour=0.0, window_s=10.0)

    def test_arrival_workload_runs_queries(self):
        outcome = run_arrival_workload(
            "faas", tpch_q6(scan_fragments=2),
            queries_per_hour=240.0, window_s=120.0)
        assert outcome.queries_run >= 1
        assert outcome.compute_cost_usd > 0
        assert outcome.cost_per_query > 0
        assert outcome.median_runtime > 0


class TestPayloadSize:
    @pytest.mark.parametrize("payload,expected", [
        (None, 0.0),
        (b"abcd", 4.0),
        (bytearray(b"xy"), 2.0),
        ("héllo", 6.0),  # UTF-8 bytes
    ])
    def test_simple_payloads(self, payload, expected):
        assert _payload_size(payload) == expected

    def test_numpy_payload_uses_nbytes(self):
        array = np.zeros(10, dtype=np.int64)
        assert _payload_size(array) == 80.0

    def test_opaque_payload_is_zero(self):
        assert _payload_size({"partitions": []}) == 0.0


class TestRequestStatsExtras:
    def test_error_rate_property(self):
        admission = FluidAdmission(accepted_read=90.0, rejected_read=10.0,
                                   accepted_write=0.0, rejected_write=0.0)
        assert admission.read_error_rate == pytest.approx(0.1)
        empty = FluidAdmission(0.0, 0.0, 0.0, 0.0)
        assert empty.read_error_rate == 0.0

    def test_successes_and_failures(self):
        stats = RequestStats()
        stats.record(RequestType.GET, "ok", count=7)
        stats.record(RequestType.GET, "throttled", count=2)
        stats.record(RequestType.PUT, "timeout", count=1)
        assert stats.successes == 7
        assert stats.failures == 3
        assert stats.total(RequestType.GET) == 9


class TestProbeSeries:
    def test_series_statistics(self):
        series = ProbeSeries(interval=0.5, samples=[
            ProbeSample(time=0.5, bytes=100.0),
            ProbeSample(time=1.0, bytes=300.0),
        ])
        assert series.rates() == [200.0, 600.0]
        assert series.times() == [0.5, 1.0]
        assert series.total_bytes() == 400.0
        assert series.peak_rate() == 600.0

    def test_empty_series(self):
        series = ProbeSeries(interval=1.0)
        assert series.peak_rate() == 0.0
        assert series.total_bytes() == 0.0


class TestCloudSimRunHelper:
    def test_run_accepts_generator_or_process(self):
        sim = CloudSim(seed=0)

        def gen(env):
            yield env.timeout(1.0)
            return "done"

        assert sim.run(gen(sim.env)) == "done"
        process = sim.env.process(gen(sim.env))
        assert sim.run(process) == "done"
