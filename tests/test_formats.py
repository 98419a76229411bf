"""Tests for schemas, record batches, and the columnar files."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import DataType, Field, RecordBatch, Schema, store_file
from repro.formats import columnar
from repro.formats.columnar import ColumnarCache, store_files
from tests import datagen_oracle


def sample_schema():
    return Schema([
        Field("id", DataType.INT64),
        Field("price", DataType.FLOAT64),
        Field("flag", DataType.STRING),
        Field("shipdate", DataType.DATE),
    ])


def store_in_groups(batch, row_group_size):
    """``store_file`` with ``row_group_size``-row groups, so a small
    batch spans several."""
    with mock.patch.object(columnar, "ROW_GROUP_SIZE", row_group_size):
        return store_file(batch)


def sample_batch(n=100):
    rng = np.random.default_rng(0)
    return RecordBatch(sample_schema(), {
        "id": np.arange(n, dtype=np.int64),
        "price": rng.random(n),
        "flag": np.array([("A" if i % 2 else "N") for i in range(n)],
                         dtype=object),
        "shipdate": rng.integers(8000, 10000, n).astype(np.int32),
    })


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([Field("a", DataType.INT64), Field("a", DataType.INT64)])

    def test_select_preserves_order(self):
        schema = sample_schema()
        sub = schema.select(["flag", "id"])
        assert sub.names() == ["flag", "id"]

    def test_unknown_field_raises(self):
        with pytest.raises(KeyError):
            sample_schema().field("nope")


class TestRecordBatch:
    def test_length_consistency_enforced(self):
        with pytest.raises(ValueError, match="rows"):
            RecordBatch(Schema([Field("a", DataType.INT64),
                                Field("b", DataType.INT64)]),
                        {"a": np.arange(3), "b": np.arange(4)})

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing column"):
            RecordBatch(Schema([Field("a", DataType.INT64)]), {})

    def test_take_mask_scales_logical_bytes(self):
        batch = sample_batch(100)
        batch.logical_bytes = 1000.0
        mask = batch.column("id") < 50
        subset = batch.take(mask)
        assert subset.num_rows == 50
        assert subset.logical_bytes == pytest.approx(500.0)

    def test_select_scales_logical_bytes_by_width(self):
        batch = sample_batch(100)
        batch.logical_bytes = 1000.0
        narrow = batch.select(["id"])
        assert narrow.logical_bytes < 1000.0
        assert narrow.schema.names() == ["id"]

    def test_concat_sums_rows_and_logical(self):
        a, b = sample_batch(10), sample_batch(20)
        merged = RecordBatch.concat([a, b])
        assert merged.num_rows == 30
        assert merged.logical_bytes == pytest.approx(
            a.logical_bytes + b.logical_bytes)

    def test_concat_schema_mismatch_rejected(self):
        a = sample_batch(5)
        b = a.select(["id"])
        with pytest.raises(ValueError, match="schema"):
            RecordBatch.concat([a, b])


def read_all(stored, columns=None, zone_map_filters=None):
    """What a reader gets of ``stored``."""
    return stored.read(columns, stored.kept(zone_map_filters))


class TestColumnarFormat:
    def test_roundtrip_all_columns(self):
        batch = sample_batch(1000)
        back = read_all(store_file(batch))
        assert back.num_rows == 1000
        np.testing.assert_array_equal(back.column("id"), batch.column("id"))
        np.testing.assert_allclose(back.column("price"),
                                   batch.column("price"))
        assert list(back.column("flag")) == list(batch.column("flag"))

    def test_projection_pushdown_reads_subset(self):
        narrow = read_all(store_file(sample_batch(100)), ["price", "id"])
        assert narrow.schema.names() == ["price", "id"]

    def test_metadata_exposes_zone_maps(self):
        [group] = store_file(sample_batch(100)).row_groups
        assert group.zone_maps["id"] == (0, 99)

    def test_zone_map_filter_skips_row_groups(self):
        stored = store_in_groups(sample_batch(1000), 100)
        # Only row groups whose id range intersects [0, 99] survive.
        result = read_all(stored, ["id"], {
            "id": lambda lo, hi: lo is not None and lo < 100})
        assert result.num_rows == 100
        assert result.column("id").max() == 99

    def test_multiple_row_groups_reassemble_in_order(self):
        stored = store_in_groups(sample_batch(1000), 64)
        assert len(stored.row_groups) == 16
        np.testing.assert_array_equal(read_all(stored, ["id"]).column("id"),
                                      np.arange(1000))

    def test_empty_batch_roundtrip(self):
        stored = store_file(sample_batch(0))
        assert [group.zone_maps["id"] for group in stored.row_groups] \
            == [(None, None)]
        assert read_all(stored).num_rows == 0


TEXT = st.text(max_size=8)

#: Column kind -> (logical type, value strategy, numpy dtype drawn as).
KINDS = {
    "int": (DataType.INT64, st.integers(-2**62, 2**62), np.int64),
    "float": (DataType.FLOAT64, st.floats(width=64), np.float64),
    # Dates arrive as int64 and are stored as int32, as the generators
    # do; out-of-range days wrap.
    "date": (DataType.DATE,
             st.integers(0, 30_000) | st.integers(-2**40, 2**40), np.int64),
    "flag": (DataType.STRING, st.sampled_from(["A", "N", "R"]), object),
    # A numpy unicode array: its values are np.str_, stored as str.
    "mode": (DataType.STRING, st.sampled_from(["AIR", "MAIL", "SHIP"]), str),
    "text": (DataType.STRING, TEXT, object),
}


@st.composite
def batches(draw):
    """A batch of 0-120 rows over int, float, date, low-cardinality
    and high-cardinality string columns."""
    rows = draw(st.integers(0, 120))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1,
                          max_size=5))
    fields, columns = [], {}
    for index, kind in enumerate(kinds):
        dtype, values, drawn_as = KINDS[kind]
        name = f"{kind}{index}"
        fields.append(Field(name, dtype))
        columns[name] = np.array(
            draw(st.lists(values, min_size=rows, max_size=rows)),
            dtype=drawn_as)
    return RecordBatch(Schema(fields), columns)


@st.composite
def projections(draw, names):
    """No projection, or some of ``names`` in any order."""
    if draw(st.booleans()):
        return None
    order = draw(st.permutations(names))
    return order[:draw(st.integers(0, len(order)))]


@st.composite
def zone_filters(draw, batch):
    """No filter, one that skips every row group, one on a column the
    file lacks, or the engine's range-overlap test on a drawn column."""
    kind = draw(st.sampled_from(["none", "never", "absent", "range"]))
    name = draw(st.sampled_from(batch.schema.names()))
    if kind == "none":
        return None
    if kind == "never":
        return {name: lambda lo, hi: False}
    if kind == "absent":
        return {"absent": lambda lo, hi: False}
    values = batch.column(name).tolist()
    bound = (st.none() | st.sampled_from(values)) if values else st.none()
    low, high = draw(bound), draw(bound)

    def overlaps(lo, hi):
        if lo is None or hi is None:
            return True
        return not ((low is not None and hi < low)
                    or (high is not None and lo > high))

    return {name: overlaps}


def assert_same_batch(got, want):
    """Same schema, dtype per column, values, and element types of
    object columns."""
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows
    for field in want.schema:
        left, right = got.column(field.name), want.column(field.name)
        assert left.dtype == right.dtype
        np.testing.assert_array_equal(left, right)
        if right.dtype == object:
            assert [type(v) for v in left] == [type(v) for v in right]


def stored_model(batch, row_group_size, columns=None, filters=None):
    """The stored file's contract, stated directly.

    ``batch`` is cut into ``row_group_size``-row groups (one empty group
    for no rows); each column is stored as its ``numpy_dtype``, strings
    as object arrays of ``str``. Returns each group's zone maps (column
    -> (min, max) of its stored values, ``(None, None)`` when empty) and
    the projected rows of the groups whose zone maps pass every filter;
    a filter on a column the file lacks never skips.
    """
    stored = {
        field.name: (
            np.array([str(v) for v in batch.column(field.name)],
                     dtype=object)
            if field.dtype is DataType.STRING
            else batch.column(field.name).astype(field.dtype.numpy_dtype))
        for field in batch.schema}
    group_of = np.arange(len(batch)) // row_group_size
    zone_maps, keep = [], np.zeros(len(batch), dtype=bool)
    for index in range(max(1, -(-len(batch) // row_group_size))):
        zones = {}
        for field in batch.schema:
            chunk = stored[field.name][group_of == index]
            if len(chunk) == 0:
                zones[field.name] = (None, None)
            elif field.dtype is DataType.STRING:
                zones[field.name] = (min(chunk.tolist()), max(chunk.tolist()))
            else:
                # np.min, not min: Python's min over NaN depends on order.
                zones[field.name] = (float(np.min(chunk)),
                                     float(np.max(chunk)))
        zone_maps.append(zones)
        if all(name not in zones or predicate(*zones[name])
               for name, predicate in (filters or {}).items()):
            keep |= group_of == index
    schema = batch.schema if columns is None else batch.schema.select(columns)
    return zone_maps, RecordBatch(
        schema, {field.name: stored[field.name][keep] for field in schema})


class TestStoredFile:
    """A stored file reads as its contract says."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_reads_equal_the_contract_model(self, data):
        batch = data.draw(batches())
        row_group = data.draw(st.integers(1, 64))
        columns = data.draw(projections(batch.schema.names()))
        filters = data.draw(zone_filters(batch))
        stored = store_in_groups(batch, row_group)
        zone_maps, want = stored_model(batch, row_group, columns, filters)
        assert_same_batch(stored.read(columns, stored.kept(filters)), want)
        assert_same_batch(
            ColumnarCache().read(("k", 0), stored, columns, filters), want)
        assert stored.schema == batch.schema
        assert stored.num_rows == len(batch)
        np.testing.assert_equal(
            [group.zone_maps for group in stored.row_groups], zone_maps)
        for group in stored.row_groups:
            for array in group.columns.values():
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = array[:1]

    def test_zone_maps_bound_the_stored_dates(self):
        # 2**31 days wraps to -2**31 when stored as int32; the zone map
        # must bound the stored value, or a filter selecting it skips
        # the group that holds it.
        batch = RecordBatch(Schema([Field("d", DataType.DATE)]),
                            {"d": np.array([2**31, 5], dtype=np.int64)})
        stored = store_file(batch)
        [group] = stored.row_groups
        assert group.columns["d"].tolist() == [-2**31, 5]
        assert group.zone_maps["d"] == (-2.0**31, 5.0)
        assert stored.kept({"d": lambda lo, hi: lo <= -2**31 <= hi}) == (0,)

    def test_filter_can_skip_every_group(self):
        stored = store_in_groups(sample_batch(100), 10)
        kept = stored.kept({"id": lambda lo, hi: False})
        assert kept == ()
        result = stored.read(["id", "flag"], kept)
        assert result.num_rows == 0
        assert result.column("flag").dtype == object

    def test_single_group_read_hands_over_the_stored_arrays(self):
        stored = store_file(sample_batch(100))
        assert stored.read(["id"], (0,)).column("id") \
            is stored.row_groups[0].columns["id"]


def assert_same_file(got, want):
    """Every field of two stored files equal: schema, rows, row groups,
    each chunk's dtype, values, element types and read-only flag, and
    each zone map's values and Python types."""
    assert got.schema == want.schema
    assert got.num_rows == want.num_rows
    assert len(got.row_groups) == len(want.row_groups)
    for mine, theirs in zip(got.row_groups, want.row_groups):
        assert list(mine.columns) == list(theirs.columns)
        for name, array in theirs.columns.items():
            chunk = mine.columns[name]
            assert chunk.dtype == array.dtype
            np.testing.assert_array_equal(chunk, array)
            assert [type(v) for v in chunk.tolist()] \
                == [type(v) for v in array.tolist()]
            assert not chunk.flags.writeable and not array.flags.writeable
        assert list(mine.zone_maps) == list(theirs.zone_maps)
        # assert_equal tells NaN from NaN and -0.0 from 0.0 apart.
        np.testing.assert_equal(mine.zone_maps, theirs.zone_maps)
        for name, bounds in theirs.zone_maps.items():
            assert [type(v) for v in mine.zone_maps[name]] \
                == [type(v) for v in bounds]


def cut(batch, row_counts):
    """``batch``'s consecutive slices of ``row_counts`` rows."""
    ends = np.cumsum([0, *row_counts])
    return [RecordBatch(batch.schema, {
        name: array[start:stop] for name, array in batch.columns.items()})
        for start, stop in zip(ends, ends[1:])]


class TestStoredFiles:
    """A batch stored as several files in one pass equals each file's
    rows stored on their own, by the per-partition oracle."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_each_file_equals_its_rows_stored_alone(self, data):
        batch = data.draw(batches())
        cuts = sorted(data.draw(st.lists(st.integers(0, len(batch)),
                                         max_size=6)))
        bounds = [0, *cuts, len(batch)]
        row_counts = [stop - start for start, stop in zip(bounds, bounds[1:])]
        with mock.patch.object(columnar, "ROW_GROUP_SIZE",
                               data.draw(st.integers(1, 16))):
            files = store_files(batch, row_counts)
            want = [datagen_oracle.store_file(piece)
                    for piece in cut(batch, row_counts)]
        assert len(files) == len(want)
        for got, expected in zip(files, want):
            assert_same_file(got, expected)

    def test_empty_files_between_full_ones_have_no_bounds(self):
        # An empty segment of reduceat returns its neighbour's element:
        # an empty file must still read (None, None).
        batch = sample_batch(5)
        files = store_files(batch, [0, 3, 0, 2, 0])
        assert [f.num_rows for f in files] == [0, 3, 0, 2, 0]
        for index in (0, 2, 4):
            [group] = files[index].row_groups
            assert set(group.zone_maps.values()) == {(None, None)}
        assert files[3].row_groups[0].zone_maps["id"] == (3.0, 4.0)

    def test_chunks_are_views_of_one_stored_column(self):
        with mock.patch.object(columnar, "ROW_GROUP_SIZE", 3):
            files = store_files(sample_batch(10), [4, 6])
        chunks = [group.columns["price"]
                  for stored in files for group in stored.row_groups]
        assert len(chunks) == 4
        assert len({id(chunk.base) for chunk in chunks}) == 1

    def test_row_counts_must_cover_the_batch(self):
        with pytest.raises(ValueError, match="row counts"):
            store_files(sample_batch(5), [2, 2])


class TestColumnarCache:
    def test_every_read_is_one_hit_or_one_miss(self):
        stored = store_in_groups(sample_batch(100), 10)
        cache = ColumnarCache()
        low_ids = {"id": lambda lo, hi: lo < 30}
        cache.read(("k", 0), stored, ["id"], low_ids)
        cache.read(("k", 0), stored, ["id"], low_ids)
        # Another predicate keeping the same row groups hits too.
        cache.read(("k", 0), stored, ["id"], {"id": lambda lo, hi: hi < 30})
        cache.read(("k", 0), stored, ["id", "flag"], low_ids)
        cache.read(("k", 1), stored, ["id"], low_ids)
        cache.read(("k", 0), stored, ["id"])
        assert (cache.hits, cache.misses) == (2, 4)

    def test_hit_equals_a_cold_read(self):
        stored = store_in_groups(sample_batch(100), 10)
        cache = ColumnarCache()
        cold = cache.read(("k", 0), stored, ["flag", "price"])
        hit = cache.read(("k", 0), stored, ["flag", "price"])
        assert hit is not cold
        assert_same_batch(hit, stored.read(["flag", "price"],
                                           stored.kept()))
        assert hit.logical_bytes == cold.logical_bytes \
            == hit.physical_bytes

    @pytest.mark.parametrize("filters", [
        None, {"id": lambda lo, hi: lo < 30}, {"id": lambda lo, hi: False}])
    def test_writing_into_a_hit_raises(self, filters):
        stored = store_in_groups(sample_batch(100), 10)
        cache = ColumnarCache()
        cache.read(("k", 0), stored, ["id", "flag"], filters)
        hit = cache.read(("k", 0), stored, ["id", "flag"], filters)
        assert cache.hits == 1
        for name in ("id", "flag"):
            column = hit.column(name)
            with pytest.raises(ValueError, match="read-only"):
                column[:1] = column[:1]


class TestPropertyRoundtrip:
    @given(values=st.lists(st.integers(min_value=-2**62, max_value=2**62),
                           min_size=0, max_size=300),
           row_group=st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_int_roundtrip_any_row_group_size(self, values, row_group):
        batch = RecordBatch(Schema([Field("v", DataType.INT64)]),
                            {"v": np.array(values, dtype=np.int64)})
        back = read_all(store_in_groups(batch, row_group))
        assert list(back.column("v")) == values

    @given(values=st.lists(st.text(max_size=20), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_string_roundtrip(self, values):
        batch = RecordBatch(Schema([Field("s", DataType.STRING)]),
                            {"s": np.array(values, dtype=object)})
        assert list(read_all(store_file(batch)).column("s")) == values
