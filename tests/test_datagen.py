"""Tests for the TPC data generators and dataset loading."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.datagen import (
    TPCH_SF1000,
    DatasetSpec,
    generate_clickstreams,
    generate_item,
    generate_lineitem,
    generate_orders,
    load_table,
    scaled_spec,
)
from repro.datagen.dates import TPCH_CURRENT, TPCH_END, TPCH_START
from repro.datagen.tpcxbb import ITEM_COUNT
from repro.formats import StoredFile, columnar
from repro.formats.columnar import store_files
from repro.network import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage import S3Standard
from tests import datagen_oracle
from tests.test_formats import assert_same_file


class TestLineitem:
    def test_shapes_and_determinism(self):
        a = generate_lineitem(1000, seed=5, scale_factor=1.0)
        b = generate_lineitem(1000, seed=5, scale_factor=1.0)
        assert a.num_rows == 1000
        np.testing.assert_array_equal(a.column("l_orderkey"),
                                      b.column("l_orderkey"))

    def test_different_seeds_differ(self):
        a = generate_lineitem(100, seed=1, scale_factor=1.0)
        b = generate_lineitem(100, seed=2, scale_factor=1.0)
        assert not np.array_equal(a.column("l_extendedprice"),
                                  b.column("l_extendedprice"))

    def test_value_domains(self):
        batch = generate_lineitem(5000, seed=0, scale_factor=1.0)
        assert batch.column("l_quantity").min() >= 1
        assert batch.column("l_quantity").max() <= 50
        assert batch.column("l_discount").min() >= 0.0
        assert batch.column("l_discount").max() <= 0.10 + 1e-9
        assert batch.column("l_tax").max() <= 0.08 + 1e-9
        assert set(batch.column("l_returnflag")) <= {"A", "N", "R"}
        assert set(batch.column("l_linestatus")) <= {"O", "F"}

    def test_date_ordering_invariants(self):
        batch = generate_lineitem(5000, seed=0, scale_factor=1.0)
        ship = batch.column("l_shipdate")
        receipt = batch.column("l_receiptdate")
        assert (receipt > ship).all()
        assert (ship >= TPCH_START).all()
        assert (receipt <= TPCH_END + 160).all()

    def test_linestatus_follows_shipdate_pivot(self):
        batch = generate_lineitem(5000, seed=0, scale_factor=1.0)
        ship = batch.column("l_shipdate")
        status = batch.column("l_linestatus")
        for s, state in zip(ship[:500], status[:500]):
            assert state == ("F" if s <= TPCH_CURRENT else "O")

    def test_q6_predicate_selectivity_nonzero(self):
        """Q6's predicate must select a plausible slice (~2%)."""
        batch = generate_lineitem(50_000, seed=0, scale_factor=1.0)
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
        batch = generate_orders(1000, seed=0, first_orderkey=1)
        assert set(batch.column("o_orderpriority")) <= {
            "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}


class TestClickstreams:
    def test_purchase_fraction(self):
        batch = generate_clickstreams(50_000, seed=0, scale_factor=1.0)
        sales = batch.column("wcs_sales_sk")
        fraction = float((sales > 0).mean())
        assert 0.02 <= fraction <= 0.06

    def test_item_dimension_keys_dense(self):
        batch = generate_item(ITEM_COUNT, seed=0)
        keys = batch.column("i_item_sk")
        assert keys[0] == 1
        assert len(np.unique(keys)) == len(keys)

    def test_clicks_reference_existing_items(self):
        clicks = generate_clickstreams(10_000, seed=0, scale_factor=1.0)
        items = generate_item(ITEM_COUNT, seed=0)
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

    @pytest.mark.parametrize("partitions", [0, -3])
    def test_a_table_needs_a_partition(self, partitions):
        with pytest.raises(ValueError, match="partitions"):
            scaled_spec("lineitem", partitions)

    def test_rows_per_partition_must_not_be_negative(self):
        with pytest.raises(ValueError, match="rows_per_partition"):
            scaled_spec("lineitem", 4, -2)

    def test_partitions_may_hold_no_rows(self):
        spec = scaled_spec("lineitem", 3, 0)
        assert spec.row_counts == [0, 0, 0]
        assert spec.total_logical_bytes == pytest.approx(
            3 * TPCH_SF1000["lineitem"].partition_logical_bytes)

    def test_rows_for_partition_sums_to_total(self):
        assert scaled_spec("lineitem", 7, 100).row_counts == [100] * 7
        spec = _spec("lineitem", 7, 100)
        assert spec.row_counts == [15] * 2 + [14] * 5
        assert sum(spec.row_counts) == spec.physical_rows


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


def _spec(name, partitions, physical_rows):
    """``name``'s SF1000 spec with ``partitions`` partitions of that
    logical size over ``physical_rows`` rows, ragged when they do not
    divide."""
    base = TPCH_SF1000[name]
    return DatasetSpec(
        name=name, schema=base.schema,
        total_logical_bytes=base.partition_logical_bytes * partitions,
        partition_count=partitions, physical_rows=physical_rows,
        generator=base.generator)


@st.composite
def table_specs(draw):
    """A spec of any of the four tables over 0-40 rows; the item
    dimension is one partition, as Table 4 stores it."""
    name = draw(st.sampled_from(sorted(TPCH_SF1000)))
    partitions = 1 if name == "item" else draw(st.integers(1, 6))
    return _spec(name, partitions, draw(st.integers(0, 40)))


def _load(loader, spec):
    """What ``loader`` leaves behind on a fresh S3: the metadata it
    returns, the clock and event count, and each object's key, size,
    put time, version and payload."""
    env = Environment()
    s3 = S3Standard(env, Fabric(env), RandomStreams(seed=0))
    proc = env.process(loader(env, s3, spec))
    env.run(until=proc)
    objects = [s3.head(key) for key in s3.list_keys()]
    return (proc.value, env.now, env.scheduled_events,
            [(o.key, o.size, o.created_at, o.version) for o in objects],
            [o.payload for o in objects])


class TestTablePath:
    """A table generated and stored in one pass equals its partitions
    generated and stored one at a time (``tests/datagen_oracle.py``)."""

    @given(spec=table_specs(), seed=st.integers(0, 2**20),
           row_group=st.integers(1, 8))
    @example(spec=_spec("lineitem", 4, 10), seed=1_000, row_group=64)
    @example(spec=_spec("orders", 5, 3), seed=7, row_group=2)
    @example(spec=scaled_spec("clickstreams", 3, 0), seed=1_000,
             row_group=4)
    @example(spec=scaled_spec("item", 1, 0), seed=0, row_group=4)
    @example(spec=scaled_spec("orders", 2, 16), seed=1_000, row_group=3)
    @settings(max_examples=100, deadline=None)
    def test_stored_files_equal_the_oracle(self, spec, seed, row_group):
        with mock.patch.object(columnar, "ROW_GROUP_SIZE", row_group):
            files = store_files(spec.generator(
                spec.row_counts, seed, spec.physical_scale_factor),
                spec.row_counts)
            want = datagen_oracle.partition_files(spec, seed)
        assert len(files) == len(want) == spec.partition_count
        for got, expected in zip(files, want):
            assert_same_file(got, expected)

    @given(spec=table_specs())
    @example(spec=_spec("clickstreams", 3, 7))
    @settings(max_examples=25, deadline=None)
    def test_load_table_equals_the_oracle_loop(self, spec):
        metadata, now, events, objects, files = _load(load_table, spec)
        want = _load(datagen_oracle.load_table_reference, spec)
        assert (metadata, now, events, objects) == want[:4]
        assert [o[0] for o in objects] == [
            f"tables/{spec.name}/part-{index:05d}"
            for index in range(spec.partition_count)]
        for got, expected in zip(files, want[4]):
            assert_same_file(got, expected)


def _days(year, month, day):
    from repro.datagen.dates import date_to_days
    return date_to_days(year, month, day)
