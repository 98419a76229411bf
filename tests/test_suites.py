"""Tests for the predefined experiment suites."""

import pytest

from repro.core import Driver
from repro.core.suites import network_suite, storage_suite
from repro.workloads.suite import full_evaluation, query_suite


class TestSuiteDefinitions:
    def test_full_evaluation_covers_all_sections(self):
        configs = full_evaluation()
        kinds = {config.kind for config in configs}
        assert kinds >= {"network-burst", "network-comparison",
                         "network-scaling", "storage-throughput",
                         "storage-iops", "storage-latency",
                         "s3-iops-scaling", "s3-downscaling", "query",
                         "function-startup"}

    def test_config_names_unique(self):
        names = [config.name for config in full_evaluation()]
        assert len(names) == len(set(names))

    def test_every_config_json_roundtrips(self):
        from repro.core.config import ExperimentConfig
        for config in full_evaluation():
            assert ExperimentConfig.from_json(config.to_json()) == config

    def test_storage_suite_covers_all_services(self):
        names = {config.parameters.get("service")
                 for config in storage_suite()
                 if "service" in config.parameters}
        assert names == {"s3-standard", "s3-express", "dynamodb", "efs-1"}

    def test_query_suite_covers_paper_queries(self):
        queries = {config.parameters["query"] for config in query_suite()}
        assert queries == {"tpch-q1", "tpch-q6", "tpch-q12", "tpcxbb-q3"}

    def test_vpc_variant_present(self):
        vpc = [config for config in network_suite()
               if config.parameters.get("vpc")]
        assert vpc


def first_config_of_each_kind():
    firsts = {}
    for config in full_evaluation():
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
