"""Consistent-hash ring properties: determinism, locality, remap bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.ring import (_HASH_CHUNK, DEFAULT_VNODES, HashRing, hash_key,
                              hash_keys)

KEYS = [f"t{i}" for i in range(4000)]


def make_ring(count, vnodes=DEFAULT_VNODES):
    ring = HashRing(vnodes)
    for index in range(count):
        ring.add_node(f"shard-{index}")
    return ring


def mapping(ring):
    return {key: ring.lookup_hash(hash_key(key)) for key in KEYS}


class TestBasics:
    def test_lookup_is_deterministic_and_order_independent(self):
        """Placement depends on names only, never on insertion order."""
        forward = HashRing()
        for index in range(4):
            forward.add_node(f"shard-{index}")
        backward = HashRing()
        for index in reversed(range(4)):
            backward.add_node(f"shard-{index}")
        assert mapping(forward) == mapping(backward)

    def test_hash_key_is_stable(self):
        assert hash_key("t0") == hash_key("t0")
        assert hash_key("t0") != hash_key("t1")

    def test_hash_keys_is_hash_key_of_every_name(self):
        """Chunk boundaries included, and a prefix ``%`` is literal."""
        chunked = 2 * _HASH_CHUNK + _HASH_CHUNK // 2 + 1
        assert chunked % _HASH_CHUNK, "the last chunk must be partial"
        for prefix, count in (("t", chunked), ("50%d-", 300), ("", 11)):
            hashes = hash_keys(prefix, range(count))
            assert hashes.dtype == "uint64" and len(hashes) == count
            for key in (0, 1, 9, 10, count // 2, _HASH_CHUNK - 1,
                        _HASH_CHUNK, 2 * _HASH_CHUNK, count - 1):
                if key < count:
                    assert int(hashes[key]) == hash_key(f"{prefix}{key}")
        assert hash_keys("t", [7, 3]).tolist() \
            == [hash_key("t7"), hash_key("t3")]

    def test_lookup_hashes_is_lookup_of_every_key(self):
        ring = make_ring(5)
        ring.split_node("shard-1", "shard-9")
        ring.remove_node("shard-3")
        nodes, owner = ring.lookup_hashes(hash_keys("t", range(len(KEYS))))
        assert nodes == ring.nodes()
        assert [nodes[index] for index in owner.tolist()] \
            == [ring.lookup_hash(hash_key(key)) for key in KEYS]
        with pytest.raises(LookupError):
            HashRing().lookup_hashes(hash_keys("t", range(3)))

    def test_every_key_maps_to_a_member(self):
        ring = make_ring(5)
        members = set(ring.nodes())
        assert set(mapping(ring).values()) <= members

    def test_empty_ring_lookup_raises(self):
        with pytest.raises(LookupError):
            HashRing().lookup_hash(hash_key("t0"))

    def test_duplicate_add_raises(self):
        ring = make_ring(1)
        with pytest.raises(ValueError, match="already"):
            ring.add_node("shard-0")

    def test_nonpositive_vnodes_rejected(self):
        with pytest.raises(ValueError):
            HashRing(0)


class TestRemapLocality:
    @given(count=st.integers(min_value=2, max_value=8))
    @settings(max_examples=7, deadline=None)
    def test_add_remaps_only_to_the_new_node_and_bounded_fraction(
            self, count):
        """Adding a node moves ~1/(N+1) of keys, all of them *to* it."""
        ring = make_ring(count)
        before = mapping(ring)
        ring.add_node("shard-new")
        after = mapping(ring)
        changed = [key for key in KEYS if before[key] != after[key]]
        assert all(after[key] == "shard-new" for key in changed)
        expected = 1.0 / (count + 1)
        fraction = len(changed) / len(KEYS)
        assert 0.2 * expected < fraction < 2.5 * expected

    @given(count=st.integers(min_value=2, max_value=8))
    @settings(max_examples=7, deadline=None)
    def test_remove_remaps_only_the_removed_nodes_keys(self, count):
        ring = make_ring(count)
        before = mapping(ring)
        ring.remove_node("shard-0")
        after = mapping(ring)
        for key in KEYS:
            if before[key] != after[key]:
                assert before[key] == "shard-0"
            else:
                assert before[key] != "shard-0"

    def test_split_touches_only_the_split_node(self):
        """Remapped keys come from the hot node and land on the new one."""
        ring = make_ring(4)
        before = mapping(ring)
        moved_points = ring.split_node("shard-1", "shard-split")
        assert moved_points == DEFAULT_VNODES // 2
        after = mapping(ring)
        for key in KEYS:
            if before[key] != after[key]:
                assert before[key] == "shard-1"
                assert after[key] == "shard-split"

    def test_merge_touches_only_the_merged_node(self):
        ring = make_ring(4)
        before = mapping(ring)
        ring.merge_node("shard-2", "shard-0")
        after = mapping(ring)
        assert "shard-2" not in ring.nodes()
        for key in KEYS:
            if before[key] != after[key]:
                assert before[key] == "shard-2"
                assert after[key] == "shard-0"
            else:
                assert before[key] != "shard-2"

    def test_merge_into_self_rejected(self):
        ring = make_ring(2)
        with pytest.raises(ValueError, match="itself"):
            ring.merge_node("shard-0", "shard-0")

    def test_successors_name_the_gaining_nodes(self):
        """Removing a node hands its ranges exactly to its successors."""
        ring = make_ring(5)
        before = mapping(ring)
        points = ring.points_of("shard-3")
        heirs = set(ring.successors(points)) - {"shard-3"}
        ring.remove_node("shard-3")
        after = mapping(ring)
        gainers = {after[key] for key in KEYS
                   if before[key] == "shard-3"}
        assert gainers <= heirs
