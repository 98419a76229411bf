"""Tests for the TPC data generators and dataset loading."""

import numpy as np
import pytest

from repro import units
from repro.datagen import (
    TPCH_SF1000,
    generate_clickstreams,
    generate_item,
    generate_lineitem,
    generate_orders,
    load_table,
    scaled_spec,
)
from repro.datagen.dates import TPCH_CURRENT, TPCH_END, TPCH_START
from repro.formats import StoredFile
from repro.network import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage import S3Standard


class TestLineitem:
    def test_shapes_and_determinism(self):
        a = generate_lineitem(1000, seed=5)
        b = generate_lineitem(1000, seed=5)
        assert a.num_rows == 1000
        np.testing.assert_array_equal(a.column("l_orderkey"),
                                      b.column("l_orderkey"))

    def test_different_seeds_differ(self):
        a = generate_lineitem(100, seed=1)
        b = generate_lineitem(100, seed=2)
        assert not np.array_equal(a.column("l_extendedprice"),
                                  b.column("l_extendedprice"))

    def test_value_domains(self):
        batch = generate_lineitem(5000, seed=0)
        assert batch.column("l_quantity").min() >= 1
        assert batch.column("l_quantity").max() <= 50
        assert batch.column("l_discount").min() >= 0.0
        assert batch.column("l_discount").max() <= 0.10 + 1e-9
        assert batch.column("l_tax").max() <= 0.08 + 1e-9
        assert set(batch.column("l_returnflag")) <= {"A", "N", "R"}
        assert set(batch.column("l_linestatus")) <= {"O", "F"}

    def test_date_ordering_invariants(self):
        batch = generate_lineitem(5000, seed=0)
        ship = batch.column("l_shipdate")
        receipt = batch.column("l_receiptdate")
        assert (receipt > ship).all()
        assert (ship >= TPCH_START).all()
        assert (receipt <= TPCH_END + 160).all()

    def test_linestatus_follows_shipdate_pivot(self):
        batch = generate_lineitem(5000, seed=0)
        ship = batch.column("l_shipdate")
        status = batch.column("l_linestatus")
        for s, st in zip(ship[:500], status[:500]):
            assert st == ("F" if s <= TPCH_CURRENT else "O")

    def test_q6_predicate_selectivity_nonzero(self):
        """Q6's predicate must select a plausible slice (~2%)."""
        batch = generate_lineitem(50_000, seed=0)
        lo = (np.array(batch.column("l_shipdate"))
              >= _days(1994, 1, 1))
        hi = np.array(batch.column("l_shipdate")) < _days(1995, 1, 1)
        disc = np.abs(batch.column("l_discount") - 0.06) <= 0.01 + 1e-9
        qty = batch.column("l_quantity") < 24
        fraction = float((lo & hi & disc & qty).mean())
        assert 0.005 <= fraction <= 0.05


class TestOrders:
    def test_consecutive_orderkeys_per_partition(self):
        batch = generate_orders(100, seed=0, first_orderkey=501)
        keys = batch.column("o_orderkey")
        assert keys[0] == 501
        assert keys[-1] == 600
        assert len(np.unique(keys)) == 100

    def test_priorities_domain(self):
        batch = generate_orders(1000, seed=0)
        assert set(batch.column("o_orderpriority")) <= {
            "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}


class TestClickstreams:
    def test_purchase_fraction(self):
        batch = generate_clickstreams(50_000, seed=0)
        sales = batch.column("wcs_sales_sk")
        fraction = float((sales > 0).mean())
        assert 0.02 <= fraction <= 0.06

    def test_item_dimension_keys_dense(self):
        batch = generate_item()
        keys = batch.column("i_item_sk")
        assert keys[0] == 1
        assert len(np.unique(keys)) == len(keys)

    def test_clicks_reference_existing_items(self):
        clicks = generate_clickstreams(10_000, seed=0)
        items = generate_item()
        assert clicks.column("wcs_item_sk").max() <= \
            items.column("i_item_sk").max()


class TestDatasetSpecs:
    def test_table4_inventory(self):
        lineitem = TPCH_SF1000["lineitem"]
        assert lineitem.partition_count == 996
        assert lineitem.total_logical_bytes == pytest.approx(177.4 * units.GiB)
        assert lineitem.partition_logical_bytes == pytest.approx(
            182.4 * units.MiB, rel=0.01)
        orders = TPCH_SF1000["orders"]
        assert orders.partition_count == 249
        assert orders.partition_logical_bytes == pytest.approx(
            176.1 * units.MiB, rel=0.05)
        clicks = TPCH_SF1000["clickstreams"]
        assert clicks.partition_count == 1_000
        assert clicks.partition_logical_bytes == pytest.approx(
            92.7 * units.MiB, rel=0.05)
        assert TPCH_SF1000["item"].partition_count == 1
        assert TPCH_SF1000["item"].partition_logical_bytes == pytest.approx(
            75.8 * units.MiB)

    def test_test_scale_keeps_partition_density(self):
        scaled = scaled_spec("lineitem", partitions=8)
        assert scaled.partition_count == 8
        assert scaled.partition_logical_bytes == pytest.approx(
            TPCH_SF1000["lineitem"].partition_logical_bytes)

    def test_rows_for_partition_sums_to_total(self):
        spec = scaled_spec("lineitem", partitions=7, rows_per_partition=100)
        total = sum(spec.rows_for_partition(i)
                    for i in range(spec.partition_count))
        assert total == spec.physical_rows


class TestLoadTable:
    def test_load_table_stores_partitions_with_logical_sizes(self):
        env = Environment()
        fabric = Fabric(env)
        rng = RandomStreams(seed=0)
        s3 = S3Standard(env, fabric, rng)
        spec = scaled_spec("orders", partitions=4, rows_per_partition=50)
        proc = env.process(load_table(env, s3, spec))
        env.run(until=proc)
        metadata = proc.value
        assert metadata.partition_count == 4
        assert metadata.total_rows == 200
        assert metadata.total_logical_bytes == pytest.approx(
            4 * spec.partition_logical_bytes)
        # The stored objects are columnar files reporting logical sizes.
        obj = s3.head(metadata.partitions[0].key)
        assert isinstance(obj.payload, StoredFile)
        assert obj.payload.num_rows == metadata.partitions[0].rows
        assert obj.payload.schema == spec.schema
        assert obj.size == pytest.approx(spec.partition_logical_bytes)


def _days(year, month, day):
    from repro.datagen.dates import date_to_days
    return date_to_days(year, month, day)
