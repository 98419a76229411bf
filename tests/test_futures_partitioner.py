"""Tests for the futures data partitioner (chunk geometry + ordering)."""

import pytest

from repro.futures import DataChunk, partition_object, partition_prefix


class FakeService:
    """Metadata-only storage stub: ``list_keys`` + ``head``."""

    class _Head:
        def __init__(self, size):
            self.size = size

    def __init__(self, objects):
        self._objects = dict(objects)

    def list_keys(self, prefix):
        return sorted(key for key in self._objects
                      if key.startswith(prefix))

    def head(self, key):
        return self._Head(self._objects[key])


def _whole(chunk):
    """Whether ``chunk`` covers its object end to end."""
    return chunk.offset == 0.0 and chunk.length == chunk.object_size


class TestPartitionObject:
    def test_no_chunk_bytes_is_one_whole_chunk(self):
        chunks = partition_object("k", 1_000.0)
        assert chunks == [DataChunk(key="k", offset=0.0, length=1_000.0,
                                    object_size=1_000.0, part=0, parts=1)]
        assert _whole(chunks[0])

    def test_object_smaller_than_chunk_is_one_whole_chunk(self):
        (chunk,) = partition_object("k", 100.0, chunk_bytes=256.0)
        assert _whole(chunk)
        assert chunk.length == 100.0
        assert chunk.parts == 1

    def test_zero_byte_object_is_one_empty_chunk(self):
        (chunk,) = partition_object("k", 0.0, chunk_bytes=256.0)
        assert chunk.length == 0.0
        assert _whole(chunk)

    def test_boundary_exactly_at_object_size(self):
        # 1024 / 256 divides evenly: exactly 4 chunks, no empty trailer.
        chunks = partition_object("k", 1_024.0, chunk_bytes=256.0)
        assert [c.length for c in chunks] == [256.0] * 4
        assert [c.offset for c in chunks] == [0.0, 256.0, 512.0, 768.0]
        assert all(c.parts == 4 for c in chunks)

    def test_trailing_remainder_chunk(self):
        chunks = partition_object("k", 1_000.0, chunk_bytes=256.0)
        assert [c.length for c in chunks] == [256.0, 256.0, 256.0, 232.0]

    def test_chunks_tile_the_object(self):
        chunks = partition_object("k", 10_000.0, chunk_bytes=768.0,
                                  align_bytes=16.0)
        assert chunks[0].offset == 0.0
        for previous, current in zip(chunks, chunks[1:]):
            assert current.offset == previous.offset + previous.length
        assert chunks[-1].offset + chunks[-1].length == 10_000.0

    def test_alignment_floors_interior_boundaries(self):
        # Raw cuts at 300/600/900 floor to multiples of 128.
        chunks = partition_object("k", 1_000.0, chunk_bytes=300.0,
                                  align_bytes=128.0)
        assert [c.offset for c in chunks] == [0.0, 256.0, 512.0, 896.0]
        for chunk in chunks[1:]:
            assert chunk.offset % 128.0 == 0.0

    def test_collapsed_aligned_boundaries_are_dropped(self):
        # chunk_bytes < align_bytes: every raw cut floors onto an earlier
        # one; no empty chunks may be emitted.
        chunks = partition_object("k", 1_024.0, chunk_bytes=100.0,
                                  align_bytes=512.0)
        assert [c.offset for c in chunks] == [0.0, 512.0]
        assert all(c.length > 0 for c in chunks)

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            partition_object("k", -1.0)
        with pytest.raises(ValueError):
            partition_object("k", 10.0, chunk_bytes=0.0)
        with pytest.raises(ValueError):
            partition_object("k", 10.0, chunk_bytes=4.0, align_bytes=-1.0)


class TestPartitionPrefix:
    def test_empty_prefix_yields_no_chunks(self):
        service = FakeService({"other/a": 100.0})
        assert partition_prefix(service, "corpus/", chunk_bytes=64.0) == []

    def test_global_index_is_sequential_over_sorted_keys(self):
        service = FakeService({"p/b": 200.0, "p/a": 100.0, "p/c": 50.0})
        chunks = partition_prefix(service, "p/", chunk_bytes=100.0)
        assert [c.index for c in chunks] == list(range(len(chunks)))
        # Keys visited in sorted order regardless of insertion order.
        assert [c.key for c in chunks] == ["p/a", "p/b", "p/b", "p/c"]

    def test_ordering_is_deterministic(self):
        service = FakeService(
            {f"p/{i:03d}": 100.0 + 7 * i for i in range(20)})
        first = partition_prefix(service, "p/", chunk_bytes=64.0,
                                 align_bytes=8.0)
        second = partition_prefix(service, "p/", chunk_bytes=64.0,
                                  align_bytes=8.0)
        assert first == second

    def test_mixed_sizes_partition_correctly(self):
        service = FakeService({"p/small": 10.0, "p/exact": 128.0,
                               "p/big": 300.0})
        chunks = partition_prefix(service, "p/", chunk_bytes=128.0)
        by_key = {}
        for chunk in chunks:
            by_key.setdefault(chunk.key, []).append(chunk)
        assert len(by_key["p/small"]) == 1
        assert _whole(by_key["p/small"][0])
        assert len(by_key["p/exact"]) == 1  # fits exactly in one chunk
        assert [c.length for c in by_key["p/big"]] == [128.0, 128.0, 44.0]
