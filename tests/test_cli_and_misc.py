"""Tests for the CLI, arrival workloads, and small utility surfaces."""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.core import CloudSim
from repro.sim.rng import RandomStreams
from repro.engine.queries import tpch_q6
from repro.network.probe import ProbeSample, ProbeSeries
from repro.storage.base import RequestStats, RequestType, _payload_size
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

    @pytest.mark.parametrize("config,message", [
        ({"name": "x", "parameters": {}}, "missing 'kind'"),
        ({"name": "x", "kind": "storage-iops", "repetitions": 3},
         "unknown config key 'repetitions'"),
        ({"name": "x", "kind": "quantum-annealing"},
         "unknown experiment kind"),
    ], ids=["missing-kind", "unknown-key", "unknown-kind"])
    def test_malformed_config_file_is_a_usage_error(self, tmp_path, capsys,
                                                    config, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["--output", str(tmp_path), "run", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: error: ")
        assert message in err

    @pytest.mark.parametrize("objects", ["0", "-3"])
    def test_futures_rejects_an_empty_corpus(self, objects, capsys):
        assert main(["futures", "--objects", objects]) == 2
        assert capsys.readouterr().err.startswith(
            "repro futures: error: objects must be positive")


class _DrawLimit:
    """An rng whose draws run out: a loop that never ends fails fast."""

    def __init__(self, rng, draws=10_000):
        self._rng = rng
        self._left = draws

    def exponential(self, scale):
        self._left -= 1
        assert self._left >= 0, "the arrival loop did not end"
        return self._rng.exponential(scale)


#: Rates and windows no Poisson window can be drawn over.
INVALID = [math.nan, math.inf, 0.0, -5.0]


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

    @pytest.mark.parametrize("value", INVALID)
    def test_invalid_window_rejected(self, value):
        rng = _DrawLimit(np.random.default_rng(0))
        with pytest.raises(ValueError, match="window must be positive"):
            poisson_arrivals(rng, rate_per_hour=120.0, window_s=value)

    @pytest.mark.parametrize("value", INVALID)
    def test_invalid_rate_rejected_before_any_draw(self, value):
        rng = _DrawLimit(np.random.default_rng(0))
        with pytest.raises(ValueError, match="rate must be positive"):
            poisson_arrivals(rng, rate_per_hour=value, window_s=60.0)

    @pytest.mark.parametrize("argv", [
        ["--window", "nan"], ["--window", "inf"], ["--window", "0"],
        ["--window", "-5"], ["--rate-scale", "nan"],
        ["--rate-scale", "inf"]])
    def test_serve_rejects_an_invalid_window_or_rate(self, argv, capsys,
                                                     monkeypatch):
        stream = RandomStreams.stream
        monkeypatch.setattr(RandomStreams, "stream", lambda self, name: (
            _DrawLimit(stream(self, name)) if name.startswith("serve.")
            else stream(self, name)))
        assert main(["serve", *argv]) == 2
        assert capsys.readouterr().err.startswith("repro serve: error: ")

    @pytest.mark.parametrize("backend,pins", [
        ("faas", (23, 23, "0.006008872", 0.7558670501576579)),
        ("iaas", (23, 23, "0.049721181", 0.7070459215022993))])
    def test_arrival_workload_outcome_is_pinned(self, backend, pins):
        outcome = run_arrival_workload(
            backend, tpch_q6(scan_fragments=4), queries_per_hour=240.0,
            window_s=300.0, vm_count=4)
        assert (outcome.queries_run, outcome.queries_offered,
                f"{outcome.compute_cost_usd:.9f}",
                outcome.median_runtime) == pins

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
    def test_successes_and_failures(self):
        stats = RequestStats()
        stats.record(RequestType.GET, "ok", count=7)
        stats.record(RequestType.GET, "throttled", count=2)
        stats.record(RequestType.PUT, "timeout", count=1)
        assert stats.total(outcome="ok") == 7
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
        assert sum(sample.bytes for sample in series.samples) == 400.0
        assert series.peak_rate() == 600.0

    def test_empty_series(self):
        series = ProbeSeries(interval=1.0)
        assert series.peak_rate() == 0.0
        assert sum(sample.bytes for sample in series.samples) == 0.0


class TestCloudSimRunHelper:
    def test_run_accepts_generator_or_process(self):
        sim = CloudSim(seed=0)

        def gen(env):
            yield env.timeout(1.0)
            return "done"

        assert sim.run(gen(sim.env)) == "done"
        process = sim.env.process(gen(sim.env))
        assert sim.run(process) == "done"
