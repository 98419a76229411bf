"""Consistent-hash ring: the partition function of the serving fabric.

Tenant keys and virtual-node points hash onto the same 64-bit circle;
a key belongs to the node owning the first point at or after the key's
hash (wrapping at the top). Virtual nodes smooth the load: with ``V``
points per node, adding a node to an ``N``-node ring remaps an expected
``1/(N+1)`` of the key space, and every remapped key moves *to* the new
node — the locality property the hypothesis suite pins down.

Beyond the classic add/remove, the ring supports two *targeted* moves
the rebalancer needs:

* :meth:`HashRing.split_node` hands every other point of a hot node to
  a fresh node — only the hot node's ranges are touched, so only its
  keys remap;
* :meth:`HashRing.merge_node` relabels a cold node's points to a target
  node — no point moves position, so keys of *other* nodes never remap.

Hashing is SHA-256-based (the same recipe as the RNG stream naming), so
placement depends only on the key and node names — never on insertion
order, process ids, or Python's hash randomization.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import Sequence

import numpy as np

#: Virtual-node points per shard. 64 keeps the coefficient of variation
#: of per-shard key share under ~15% while a lookup stays a handful of
#: comparisons (bisect over shards x 64 points).
DEFAULT_VNODES = 64


def hash_key(key: str) -> int:
    """Stable 64-bit position of ``key`` on the ring."""
    raw = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "little")


#: Keys hashed per chunk by :func:`hash_keys`: bounds the transient
#: digest buffer at 2 MiB however large the key space is.
_HASH_CHUNK = 65536


def hash_keys(prefix: str, keys: Sequence[int]) -> np.ndarray:
    """:func:`hash_key` of ``f"{prefix}{key}"`` for every integer key.

    The ring positions of a dense key space as one ``uint64`` array, so
    a trace over it is placed with array lookups
    (:meth:`HashRing.lookup_hashes`) and no name is ever formatted.
    """
    name = prefix.encode("utf-8").replace(b"%", b"%%") + b"%d"
    sha256 = hashlib.sha256
    hashes = np.empty(len(keys), dtype=np.uint64)
    for lo in range(0, len(keys), _HASH_CHUNK):
        chunk = keys[lo:lo + _HASH_CHUNK]
        digests = b"".join([sha256(name % key).digest() for key in chunk])
        # The first 8 of each digest's 32 bytes, little-endian.
        hashes[lo:lo + len(chunk)] = np.frombuffer(digests, dtype="<u8")[::4]
    return hashes


class HashRing:
    """A consistent-hash ring of named nodes with virtual points."""

    def __init__(self, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        #: Sorted virtual-node positions; ``_owner[pos]`` names the node
        #: owning the arc that *ends* at ``pos``.
        self._points: list[int] = []
        self._owner: dict[int, str] = {}
        self._node_points: dict[str, list[int]] = {}

    # -- membership --------------------------------------------------------

    def nodes(self) -> list[str]:
        """Member node names, sorted."""
        return sorted(self._node_points)

    def __len__(self) -> int:
        return len(self._node_points)

    def __contains__(self, name: str) -> bool:
        return name in self._node_points

    def points_of(self, name: str) -> list[int]:
        """The virtual points a node currently owns (sorted)."""
        return sorted(self._node_points[name])

    def add_node(self, name: str, vnodes: int | None = None) -> list[int]:
        """Insert a node; returns its points. Raises if already present."""
        if name in self._node_points:
            raise ValueError(f"node {name!r} is already on the ring")
        count = self.vnodes if vnodes is None else vnodes
        points = []
        for index in range(count):
            position = hash_key(f"{name}#{index}")
            while position in self._owner:  # 64-bit collision: step on
                position = (position + 1) % (1 << 64)
            insort(self._points, position)
            self._owner[position] = name
            points.append(position)
        self._node_points[name] = points
        return points

    def remove_node(self, name: str) -> list[int]:
        """Remove a node; its ranges fall to ring successors."""
        points = self._node_points.pop(name)
        vacated = set(points)
        self._points = [p for p in self._points if p not in vacated]
        for position in points:
            del self._owner[position]
        return points

    def successors(self, points: list[int]) -> list[str]:
        """Nodes owning the arcs just after ``points`` (sorted, unique).

        These are exactly the nodes whose key ranges grow when the
        given points are vacated — the set whose epochs a directory
        must bump on a removal.
        """
        owners = {self._owner[self._points[
            bisect_right(self._points, position) % len(self._points)]]
            for position in points} if self._points else set()
        return sorted(owners)

    # -- targeted rebalance moves ------------------------------------------

    def split_node(self, name: str, new_name: str) -> int:
        """Move every other point of ``name`` to ``new_name``.

        Only keys inside the split node's former ranges remap (all of
        them to ``new_name``); every other node's mapping is untouched.
        Returns the number of points moved.
        """
        if new_name in self._node_points:
            raise ValueError(f"node {new_name!r} is already on the ring")
        points = sorted(self._node_points[name])
        if len(points) < 2:
            raise ValueError(f"node {name!r} has too few points to split")
        moved = points[1::2]
        self._node_points[name] = points[0::2]
        self._node_points[new_name] = list(moved)
        for position in moved:
            self._owner[position] = new_name
        return len(moved)

    def merge_node(self, source: str, target: str) -> int:
        """Relabel every point of ``source`` as ``target``'s.

        No point changes position, so only keys previously owned by
        ``source`` remap — and all of them to ``target``. Returns the
        number of points transferred.
        """
        if source == target:
            raise ValueError("cannot merge a node into itself")
        points = self._node_points.pop(source)
        self._node_points[target].extend(points)
        for position in points:
            self._owner[position] = target
        return len(points)

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: str) -> str:
        """The node owning ``key`` (the partition function)."""
        if not self._points:
            raise LookupError("lookup on an empty ring")
        index = bisect_right(self._points, hash_key(key))
        if index == len(self._points):
            index = 0
        return self._owner[self._points[index]]

    def lookup_hashes(self, hashes: np.ndarray
                      ) -> tuple[list[str], np.ndarray]:
        """:meth:`lookup` for an array of ring positions at once.

        Returns the member nodes (sorted) and, per hash, the index of
        its owner in that list: one ``searchsorted`` over the points.
        """
        if not self._points:
            raise LookupError("lookup on an empty ring")
        nodes = self.nodes()
        rank = {name: index for index, name in enumerate(nodes)}
        # The narrowest index type: grouping by owner is then a radix sort.
        owners = np.array([rank[self._owner[position]]
                           for position in self._points],
                          dtype=np.min_scalar_type(len(nodes)))
        at = np.array(self._points, dtype=np.uint64).searchsorted(
            hashes, side="right")
        at[at == len(owners)] = 0
        return nodes, owners[at]
