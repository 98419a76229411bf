"""Unit tests for the coordinator's distributed-plan compilation."""

import pytest

from repro import units
from repro.datagen.datasets import PartitionInfo, TableMetadata
from repro.datagen.tpch import LINEITEM_SCHEMA
from repro.engine.coordinator import (
    CoordinatorRuntime,
    _compile_fragments,
    _consumer_fragments,
    _fragment_payloads,
    _read_fraction,
)
from repro.engine.queries import tpch_q6


def make_table(partitions: int, partition_mib: float = 182.4
               ) -> TableMetadata:
    metadata = TableMetadata(name="lineitem", schema=LINEITEM_SCHEMA)
    for index in range(partitions):
        metadata.partitions.append(PartitionInfo(
            key=f"tables/lineitem/part-{index:05d}",
            logical_bytes=partition_mib * units.MiB, rows=64))
    return metadata


def make_runtime(partitions: int = 996) -> CoordinatorRuntime:
    return CoordinatorRuntime(
        catalog={"lineitem": make_table(partitions)},
        backend=None, worker_function="w", invoker_function="i")


class TestReadFraction:
    def test_q6_projection_fraction(self):
        """Q6 reads 4 fixed-width columns of lineitem's 11: 28/100 bytes."""
        table = make_table(1)
        fraction = _read_fraction(table, ["l_shipdate", "l_discount",
                                          "l_quantity", "l_extendedprice"])
        assert fraction == pytest.approx(0.28)

    def test_full_projection_is_one(self):
        table = make_table(1)
        assert _read_fraction(table, table.schema.names()) == 1.0


class TestBurstAwareSizing:
    def test_q6_at_sf1000_lands_near_the_paper_fleet(self):
        """996 partitions x 51 MiB effective / 270 MiB budget ~ 189
        workers — the same regime as the paper's 201."""
        runtime = make_runtime(996)
        fragments = _compile_fragments(runtime, tpch_q6())
        assert 150 <= fragments["scan"] <= 220
        assert fragments["final"] == 1

    def test_fragments_never_exceed_partitions(self):
        runtime = make_runtime(4)
        fragments = _compile_fragments(runtime, tpch_q6())
        assert fragments["scan"] <= 4

    def test_explicit_override_wins(self):
        runtime = make_runtime(996)
        fragments = _compile_fragments(runtime, tpch_q6(scan_fragments=42))
        assert fragments["scan"] == 42

    def test_per_worker_volume_stays_within_budget(self):
        runtime = make_runtime(996)
        plan = tpch_q6()
        fragments = _compile_fragments(runtime, plan)
        table = runtime.catalog["lineitem"]
        fraction = _read_fraction(table, plan.pipeline("scan").source.columns)
        per_worker = (table.total_logical_bytes * fraction
                      / fragments["scan"])
        assert per_worker <= 300 * units.MiB


class TestFragmentPayloads:
    def test_partition_assignment_is_a_partition_of_the_table(self):
        runtime = make_runtime(10)
        plan = tpch_q6(scan_fragments=3)
        fragments = _compile_fragments(runtime, plan)
        payloads = _fragment_payloads(runtime, plan, plan.pipeline("scan"),
                                      fragments)
        assert len(payloads) == 3
        assigned = [p["key"] for payload in payloads
                    for p in payload["partitions"]]
        table = runtime.catalog["lineitem"]
        assert sorted(assigned) == sorted(p.key for p in table.partitions)
        counts = [len(payload["partitions"]) for payload in payloads]
        assert max(counts) - min(counts) <= 1  # even distribution

    def test_consumer_fragment_count_reaches_producers(self):
        runtime = make_runtime(10)
        plan = tpch_q6(scan_fragments=5)
        fragments = _compile_fragments(runtime, plan)
        scan = plan.pipeline("scan")
        assert _consumer_fragments(plan, scan, fragments) \
            == fragments["final"]
        payloads = _fragment_payloads(runtime, plan, scan, fragments)
        assert all(p["out_partitions"] == fragments["final"]
                   for p in payloads)

    def test_shuffle_consumer_payload_names_producers(self):
        runtime = make_runtime(10)
        plan = tpch_q6(scan_fragments=5)
        fragments = _compile_fragments(runtime, plan)
        final = plan.pipeline("final")
        payloads = _fragment_payloads(runtime, plan, final, fragments)
        assert payloads[0]["producer_fragments"] == {"scan": 5}
