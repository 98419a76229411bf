"""Table 4: datasets used in the experiments (SF1000).

Verifies the dataset inventory — logical sizes, partition counts, and
mean partition sizes — and that the loader stores partitions as columnar
files.
"""

import pytest

from conftest import save_artifact
from repro import units
from repro.core import format_table
from repro.datagen import TPCH_SF1000, load_table, scaled_spec
from repro.network import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage import S3Standard

PAPER_ROWS = {
    # table: (size GiB, partitions, partition MiB)
    "lineitem": (177.4, 996, 182.4),
    "orders": (44.9, 249, 176.1),
    "clickstreams": (94.9, 1_000, 92.7),
    "item": (0.074, 1, 75.8),  # the paper rounds 75.8 MiB to 0.08 GiB
}


def stored_sample(name: str):
    """The file ``load_table`` stores for one 128-row partition of
    ``name`` (the item dimension always loads whole)."""
    env = Environment()
    s3 = S3Standard(env, Fabric(env), RandomStreams(seed=0))
    load = env.process(load_table(
        env, s3, scaled_spec(name, partitions=1, rows_per_partition=128),
        seed=42))
    env.run(until=load)
    return s3.head(load.value.partitions[0].key).payload


def run_experiment():
    inventory = {}
    for name, spec in TPCH_SF1000.items():
        stored = stored_sample(name)
        inventory[name] = {
            "size_gib": spec.total_logical_bytes / units.GiB,
            "partitions": spec.partition_count,
            "partition_mib": spec.partition_logical_bytes / units.MiB,
            "columns": len(stored.schema),
            "sample_rows": stored.num_rows,
        }
    return inventory


def test_table4_datasets(benchmark):
    inventory = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [[name, f"{item['size_gib']:.2f}", item["partitions"],
             f"{item['partition_mib']:.1f}", item["columns"]]
            for name, item in inventory.items()]
    table = format_table(
        ["Table", "Size [GiB]", "Partitions", "Partition [MiB]", "Columns"],
        rows, title="Table 4: datasets @ SF1000")
    save_artifact("table4_datasets", table)

    for name, (size_gib, partitions, partition_mib) in PAPER_ROWS.items():
        assert inventory[name]["size_gib"] == pytest.approx(size_gib,
                                                            rel=0.01)
        assert inventory[name]["partitions"] == partitions
        assert inventory[name]["partition_mib"] == pytest.approx(
            partition_mib, rel=0.05)
        # The loader stores non-empty columnar partitions.
        assert inventory[name]["sample_rows"] > 0
