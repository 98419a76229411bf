"""Tests for the experiment registry (the paper's evaluation as data)."""

import json
from dataclasses import asdict

import pytest

from repro.core import Driver, ExperimentConfig
from repro.workloads.registry import GROUPS, experiments, suite

FIGURES = [f"fig{number}" for number in range(5, 14)]


class TestSuiteDefinitions:
    def test_registry_keys_figures_5_to_13(self):
        assert set(experiments()) == {*FIGURES, "query", "startup"}
        assert list(GROUPS["network"]) + list(GROUPS["storage"]) == FIGURES

    def test_full_evaluation_covers_all_sections(self):
        kinds = {config.kind for config in suite("full")}
        assert kinds >= {"network-burst", "network-comparison",
                         "network-scaling", "storage-throughput",
                         "storage-iops", "storage-latency",
                         "s3-iops-scaling", "s3-downscaling", "query",
                         "function-startup"}

    def test_config_names_unique(self):
        names = [config.name for config in suite("full")]
        assert len(names) == len(set(names))

    def test_every_config_json_roundtrips(self):
        for config in suite("full"):
            assert ExperimentConfig.from_json(
                json.dumps(asdict(config))) == config

    @pytest.mark.parametrize("paper_id", FIGURES)
    def test_one_seed_per_figure(self, paper_id):
        assert len({config.seed for config in experiments()[paper_id]}) == 1

    def test_storage_suite_covers_all_services(self):
        names = {config.parameters.get("service")
                 for config in suite("storage")
                 if "service" in config.parameters}
        assert names == {"s3-standard", "s3-express", "dynamodb", "efs-1",
                         "efs-2"}

    def test_query_suite_covers_paper_queries(self):
        queries = {config.parameters["query"] for config in suite("query")}
        assert queries == {"tpch-q1", "tpch-q6", "tpch-q12", "tpcxbb-q3"}

    def test_vpc_variant_present(self):
        vpc = [config for config in suite("network")
               if config.parameters.get("vpc")]
        assert vpc


def first_config_of_each_kind():
    firsts = {}
    for config in suite("full"):
        firsts.setdefault(config.kind, config)
    return list(firsts.values())


class TestSuiteExecution:
    """Smoke-run one config per kind through the driver."""

    @pytest.mark.parametrize("config", first_config_of_each_kind(),
                             ids=lambda config: config.name)
    def test_driver_executes_suite_config(self, config):
        if config.kind == "storage-latency":
            config.parameters["requests"] = 20_000  # keep the test fast
        result = Driver().run(config)
        assert result.kind == config.kind
        assert result.metrics
        assert result.cost_usd > 0
        if config.kind == "s3-iops-scaling":
            # Figure 11's staircase: one prefix partition up to five.
            partitions = [count for __, count in result.series["partitions"]]
            assert (partitions[0], partitions[-1]) == (1, 5)
