"""Tests for the query-suite workload protocols."""

import pytest

from repro.core import CloudSim, Driver, ExperimentConfig
from repro.workloads import (
    SuiteSetup,
    run_suite_once,
    run_variability_experiment,
    setup_engine,
    table5_metrics,
)
from repro.workloads.suite import build_plan


class TestSuiteSetup:
    def test_specs_cover_query_tables(self):
        setup = SuiteSetup(queries=("tpch-q12",))
        names = {spec.name for spec in setup.specs()}
        assert names == {"lineitem", "orders"}

    def test_bb_q3_needs_clicks_and_item(self):
        setup = SuiteSetup(queries=("tpcxbb-q3",))
        names = {spec.name for spec in setup.specs()}
        assert names == {"clickstreams", "item"}

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError, match="unknown query"):
            build_plan("tpch-q99")


class TestSuiteExecution:
    def test_suite_runs_all_queries(self):
        sim = CloudSim(seed=1)
        setup = SuiteSetup(lineitem_partitions=3, orders_partitions=2,
                           clickstreams_partitions=2, rows_per_partition=128)
        engine = setup_engine(sim, setup)
        runtime = run_suite_once(sim, engine, setup.queries)
        assert runtime > 0

    def test_iaas_backend(self):
        sim = CloudSim(seed=1)
        setup = SuiteSetup(queries=("tpch-q6",), lineitem_partitions=3,
                           rows_per_partition=128)
        engine = setup_engine(sim, setup, backend="iaas", vm_count=4)
        runtime = run_suite_once(sim, engine, setup.queries)
        assert runtime > 0

    def test_unknown_backend_rejected(self):
        sim = CloudSim(seed=1)
        with pytest.raises(ValueError, match="backend"):
            setup_engine(sim, SuiteSetup(queries=("tpch-q6",)),
                         backend="bare-metal")


class TestVariability:
    @pytest.fixture(scope="class")
    def cold_data(self):
        setup = SuiteSetup(queries=("tpch-q6",), lineitem_partitions=2,
                           rows_per_partition=64)
        return run_variability_experiment("cold", runs=6, setup=setup)

    def test_all_regions_measured(self, cold_data):
        assert set(cold_data.runtimes) == {
            "us-east-1", "eu-west-1", "ap-northeast-1"}
        assert all(len(v) == 6 for v in cold_data.runtimes.values())

    def test_eu_median_ratio_about_1_5(self, cold_data):
        metrics = table5_metrics(cold_data)
        assert metrics["us-east-1"]["MR"] == 1.0
        assert 1.2 <= metrics["eu-west-1"]["MR"] <= 1.9

    def test_us_cold_cov_is_highest(self, cold_data):
        metrics = table5_metrics(cold_data)
        assert metrics["us-east-1"]["CoV_percent"] > \
            metrics["eu-west-1"]["CoV_percent"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_variability_experiment("lukewarm", runs=1)


class TestQueryDriverIntegration:
    def test_driver_runs_query_config(self):
        driver = Driver()
        result = driver.run(ExperimentConfig(
            name="q6", kind="query",
            parameters={"query": "tpch-q6", "lineitem_partitions": 3,
                        "rows_per_partition": 128}))
        assert result.metrics["runtime_s"] > 0
        assert result.metrics["requests"] > 0
        assert result.cost_usd > 0
