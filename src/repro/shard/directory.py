"""The partition directory: the authoritative, versioned shard map.

The directory owns the ring and versions every mutation with *epochs*:
a global epoch counts map changes, and each shard carries the epoch at
which its assignment set last changed. A route handed out by
:meth:`PartitionDirectory.locate_hash` embeds the shard's epoch, which
the router checks against the gateway's fence, so a router holding a
cached route from before a split/merge/failure is forced back to the
directory instead of double-admitting a rebalanced tenant on its old
shard.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.shard.ring import HashRing

#: Shard ids are ``shard-<n>``, numbered in creation order.
SHARD_PREFIX = "shard"


class Route(NamedTuple):
    """One directory answer: where a tenant lives, as of which epoch."""

    shard: str
    epoch: int


class PartitionDirectory:
    """Maps tenant keys to shards; every mutation bumps fenced epochs."""

    def __init__(self, shards: int = 1, vnodes: int | None = None) -> None:
        self.ring = HashRing() if vnodes is None else HashRing(vnodes)
        #: Global map version; grows by one per mutation.
        self.epoch = 0
        #: Each shard's current route: its id with the epoch at which
        #: its assignment set last changed. One shared object per
        #: (shard, epoch) — a full replay asks for a route about a
        #: million times, and none of those answers allocates.
        self._shard_routes: dict[str, Route] = {}
        self._counter = 0
        for _ in range(shards):
            self.add_shard()

    # -- views -------------------------------------------------------------

    def shards(self) -> list[str]:
        """Member shard ids, sorted."""
        return self.ring.nodes()

    def shard_epoch(self, shard: str) -> int:
        """The epoch fence value of one shard."""
        return self._shard_routes[shard].epoch

    def can_split(self, shard: str) -> bool:
        """Whether a shard still has enough ring points to divide.

        Repeated splits halve a shard's virtual points; once it is down
        to one, its key range is atomic and a further split would
        raise. Control loops check this before deciding to split.
        """
        return len(self.ring.points_of(shard)) >= 2

    def locate_hash(self, position: int) -> Route:
        """The authoritative route of the tenant at ring ``position``
        (its :func:`~repro.shard.ring.hash_key`; O(log vnodes))."""
        return self._shard_routes[self.ring.lookup_hash(position)]

    # -- mutations (each bumps the global epoch once) ----------------------

    def _bump(self, affected) -> int:
        self.epoch += 1
        for shard in affected:
            self._shard_routes[shard] = Route(shard, self.epoch)
        return self.epoch

    def add_shard(self) -> str:
        """Add a shard to the ring; its gainers' epochs advance."""
        name = f"{SHARD_PREFIX}-{self._counter}"
        self._counter += 1
        points = self.ring.add_node(name)
        losers = [shard for shard in self.ring.successors(points)
                  if shard != name]
        self._bump([name] + losers)
        return name

    def split_shard(self, hot: str) -> str:
        """Split a hot shard: half its ranges move to a fresh shard."""
        name = f"{SHARD_PREFIX}-{self._counter}"
        self._counter += 1
        self.ring.split_node(hot, name)
        self._bump([hot, name])
        return name

    def merge_shard(self, cold: str, target: str) -> None:
        """Merge a cold shard's ranges into ``target``."""
        self.ring.merge_node(cold, target)
        self._shard_routes.pop(cold)
        self._bump([target])

    def fail_shard(self, dead: str) -> list[str]:
        """Drop a failed shard; returns the shards that took its ranges.

        Ranges fall to ring successors.
        """
        points = self.ring.remove_node(dead)
        self._shard_routes.pop(dead)
        heirs = self.ring.successors(points)
        self._bump(heirs)
        return heirs
