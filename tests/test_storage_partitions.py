"""Unit and property tests for the S3 prefix-partition model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.partitions import (
    FIRST_MERGE_IDLE_S,
    FULL_MERGE_IDLE_S,
    PartitionTree,
    READ_IOPS_PER_PARTITION,
    SPLIT_AFTER_S,
    key_point,
)


def _read_quota(tree):
    """Aggregate read quota across the tree's partitions."""
    return sum(partition.read_quota for partition in tree.partitions)


class TestKeyPoint:
    def test_point_in_unit_interval(self):
        for key in ("a", "data/part-17", "", "x" * 100):
            assert 0.0 <= key_point(key) < 1.0

    def test_point_is_stable(self):
        assert key_point("some-key") == key_point("some-key")

    @given(st.text(max_size=50))
    def test_point_in_range_property(self, key):
        assert 0.0 <= key_point(key) < 1.0


class TestSplitting:
    def test_fresh_tree_has_one_partition(self):
        tree = PartitionTree()
        assert tree.partition_count == 1
        assert _read_quota(tree) == READ_IOPS_PER_PARTITION

    def test_split_halves_keyspace(self):
        tree = PartitionTree()
        tree.retile(2, now=0.0)
        left, right = tree.partitions
        assert left.width == pytest.approx(0.5)
        assert right.width == pytest.approx(0.5)
        assert left.high == right.low
        assert tree.partition_count == 2

    def test_sustained_overload_triggers_split(self):
        tree = PartitionTree()
        now = 0.0
        # Offer 110% of quota until the split threshold passes.
        while tree.partition_count == 1 and now < 2 * SPLIT_AFTER_S:
            tree.offer_load(read_iops=1.1 * READ_IOPS_PER_PARTITION,
                            write_iops=0, elapsed=10.0, now=now)
            now += 10.0
        assert tree.partition_count == 2
        assert now == pytest.approx(SPLIT_AFTER_S, abs=20.0)

    def test_light_load_never_splits(self):
        tree = PartitionTree()
        for step in range(500):
            tree.offer_load(read_iops=0.5 * READ_IOPS_PER_PARTITION,
                            write_iops=0, elapsed=10.0, now=step * 10.0)
        assert tree.partition_count == 1

    def test_write_only_load_never_splits(self):
        """Section 4.4.1: write IOPS cannot scale beyond one partition."""
        tree = PartitionTree()
        for step in range(1000):
            tree.offer_load(read_iops=0, write_iops=50_000,
                            elapsed=10.0, now=step * 10.0)
        assert tree.partition_count == 1

    def test_heat_decays_when_load_subsides(self):
        tree = PartitionTree()
        tree.offer_load(read_iops=10_000, write_iops=0, elapsed=SPLIT_AFTER_S / 2,
                        now=0.0)
        partition = tree.partitions[0]
        assert partition.heat_s > 0
        tree.offer_load(read_iops=100, write_iops=0, elapsed=SPLIT_AFTER_S,
                        now=SPLIT_AFTER_S / 2)
        assert tree.partitions[0].heat_s == 0.0

    def test_ramping_load_scales_to_five_partitions(self):
        """The Figure 11 staircase: ~30K offered IOPS -> 5 partitions."""
        tree = PartitionTree()
        now = 0.0
        offered = 6_000.0
        while offered <= 30_000.0:
            for _ in range(6):  # ~1 minute per load level
                tree.offer_load(read_iops=offered, write_iops=0,
                                elapsed=10.0, now=now)
                now += 10.0
            offered += 600.0
        assert 4 <= tree.partition_count <= 6
        # The process should take tens of minutes, not seconds.
        assert now > 15 * 60


class TestMerging:
    def make_scaled_tree(self):
        tree = PartitionTree()
        now = 0.0
        while tree.partition_count < 5:
            tree.offer_load(read_iops=1.2 * _read_quota(tree),
                            write_iops=0, elapsed=30.0, now=now)
            now += 30.0
        return tree, now

    def test_partitions_survive_one_day_idle(self):
        tree, now = self.make_scaled_tree()
        tree.maybe_merge(now + 86_400.0)
        assert tree.partition_count == 5

    def test_first_merge_leaves_two_partitions(self):
        tree, now = self.make_scaled_tree()
        tree.maybe_merge(now + FIRST_MERGE_IDLE_S + 1)
        assert tree.partition_count == 2

    def test_full_merge_returns_to_one_partition(self):
        tree, now = self.make_scaled_tree()
        tree.maybe_merge(now + FULL_MERGE_IDLE_S + 1)
        assert tree.partition_count == 1

    def test_low_probe_load_does_not_reset_idle(self):
        """Figure 13: hourly probes must not keep partitions warm."""
        tree, now = self.make_scaled_tree()
        probe_now = now
        for _ in range(int(FULL_MERGE_IDLE_S // 3600) + 2):
            probe_now += 3600.0
            # A light probe: well below the busy-utilization floor.
            tree.offer_load(read_iops=500.0, write_iops=0, elapsed=60.0,
                            now=probe_now)
        assert tree.partition_count == 1


class TestInvariants:
    @given(counts=st.lists(st.integers(min_value=1, max_value=64),
                           min_size=0, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_partitions_always_tile_keyspace(self, counts):
        """Property: leaves always exactly tile [0, 1) without overlap."""
        tree = PartitionTree()
        for count in counts:
            tree.retile(count, now=0.0)
        ordered = sorted(tree.partitions, key=lambda p: p.low)
        assert ordered[0].low == 0.0
        assert ordered[-1].high == 1.0
        for left, right in zip(ordered, ordered[1:]):
            assert left.high == pytest.approx(right.low)
        total_width = sum(p.width for p in ordered)
        assert total_width == pytest.approx(1.0)

    @given(read=st.floats(min_value=0, max_value=1e6),
           write=st.floats(min_value=0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_fluid_conservation(self, read, write):
        """Property: accepted + rejected equals offered, never negative."""
        tree = PartitionTree()
        step = tree.offer_load(read_iops=read, write_iops=write,
                               elapsed=1.0, now=0.0)
        assert step.accepted_read + step.rejected_read == pytest.approx(read)
        assert step.accepted_write + step.rejected_write == pytest.approx(write)
        assert step.accepted_read >= 0 and step.rejected_read >= 0
        assert step.accepted_write >= 0 and step.rejected_write >= 0

    @given(keys=st.lists(st.text(min_size=1, max_size=20), min_size=1,
                         max_size=50),
           count=st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_every_key_maps_to_exactly_one_partition(self, keys, count):
        tree = PartitionTree()
        tree.retile(count, now=0.0)
        for key in keys:
            owners = [p for p in tree.partitions if p.owns(key_point(key))]
            assert len(owners) == 1

    @given(keys=st.lists(st.text(max_size=20), min_size=1, max_size=50),
           counts=st.lists(st.integers(min_value=1, max_value=64),
                           min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_memoized_partition_for_equals_a_scan(self, keys, counts):
        """``partition_for`` memoizes ``key_point`` per tree; the owner
        it finds must be the one a scan with a fresh ``key_point`` finds,
        before and after the tree is retiled and merges."""
        tree = PartitionTree()

        def check():
            for key in keys + keys:  # the second pass hits the memo
                point = key_point(key)
                owner = next((p for p in tree.partitions if p.owns(point)),
                             tree.partitions[-1])
                assert tree.partition_for(key) is owner

        check()
        for count in counts:
            tree.retile(count, now=0.0)
            check()
        tree.maybe_merge(now=FIRST_MERGE_IDLE_S)
        check()
        tree.maybe_merge(now=FULL_MERGE_IDLE_S)
        assert tree.partition_count == 1
        check()
