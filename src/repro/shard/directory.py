"""The partition directory: the authoritative, versioned shard map.

The directory owns the ring plus an override table for tenants the
rebalancer has pinned explicitly, and versions every mutation with
*epochs*: a global epoch counts map changes, and each shard carries the
epoch at which its assignment set last changed. A route handed out by
:meth:`PartitionDirectory.locate` embeds the shard's epoch; gateways
fence submissions on it (:class:`~repro.serve.gateway.StaleEpoch`), so
a router holding a cached route from before a split/merge/failure is
forced back to the directory instead of double-admitting a rebalanced
tenant on its old shard.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.shard.ring import HashRing


class Route(NamedTuple):
    """One directory answer: where a tenant lives, as of which epoch."""

    shard: str
    epoch: int


class PartitionDirectory:
    """Maps tenant keys to shards; every mutation bumps fenced epochs."""

    def __init__(self, shards: int = 1, vnodes: int | None = None,
                 prefix: str = "shard") -> None:
        self.ring = HashRing() if vnodes is None else HashRing(vnodes)
        self.prefix = prefix
        #: Global map version; grows by one per mutation.
        self.epoch = 0
        #: Each shard's current route: its id with the epoch at which
        #: its assignment set last changed. One shared object per
        #: (shard, epoch) — a full replay asks for a route about a
        #: million times, and none of those answers allocates.
        self._shard_routes: dict[str, Route] = {}
        #: Tenants pinned to a shard explicitly (hot-tenant isolation,
        #: failure re-homing); consulted before the ring.
        self._overrides: dict[str, str] = {}
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

    def overrides(self) -> dict[str, str]:
        """The explicit tenant pins (copy)."""
        return dict(self._overrides)

    def can_split(self, shard: str) -> bool:
        """Whether a shard still has enough ring points to divide.

        Repeated splits halve a shard's virtual points; once it is down
        to one, its key range is atomic and a further split would
        raise. Control loops check this before deciding to split.
        """
        return len(self.ring.points_of(shard)) >= 2

    def locate(self, tenant: str) -> Route:
        """The authoritative route of a tenant (O(log vnodes))."""
        shard = self._overrides.get(tenant)
        if shard is None:
            shard = self.ring.lookup(tenant)
        return self._shard_routes[shard]

    # -- mutations (each bumps the global epoch once) ----------------------

    def _bump(self, affected) -> int:
        self.epoch += 1
        for shard in affected:
            self._shard_routes[shard] = Route(shard, self.epoch)
        return self.epoch

    def add_shard(self, name: str | None = None) -> str:
        """Add a shard to the ring; its gainers' epochs advance."""
        if name is None:
            name = f"{self.prefix}-{self._counter}"
        self._counter += 1
        points = self.ring.add_node(name)
        losers = [shard for shard in self.ring.successors(points)
                  if shard != name]
        self._bump([name] + losers)
        return name

    def split_shard(self, hot: str) -> str:
        """Split a hot shard: half its ranges move to a fresh shard."""
        name = f"{self.prefix}-{self._counter}"
        self._counter += 1
        self.ring.split_node(hot, name)
        self._bump([hot, name])
        return name

    def merge_shard(self, cold: str, target: str) -> None:
        """Merge a cold shard's ranges (and pins) into ``target``."""
        self.ring.merge_node(cold, target)
        for tenant, shard in list(self._overrides.items()):
            if shard == cold:
                self._overrides[tenant] = target
        self._shard_routes.pop(cold)
        self._bump([target])

    def fail_shard(self, dead: str) -> list[str]:
        """Drop a failed shard; returns the shards that took its ranges.

        Ranges fall to ring successors; explicit pins to the dead shard
        are released back to the ring (their tenants re-hash).
        """
        points = self.ring.remove_node(dead)
        for tenant, shard in list(self._overrides.items()):
            if shard == dead:
                del self._overrides[tenant]
        self._shard_routes.pop(dead)
        heirs = self.ring.successors(points)
        self._bump(heirs)
        return heirs

    def pin(self, tenant: str, shard: str) -> None:
        """Pin one tenant to a shard (hot-tenant isolation)."""
        if shard not in self.ring:
            raise KeyError(f"shard {shard!r} is not on the ring")
        previous = self.locate(tenant).shard
        self._overrides[tenant] = shard
        self._bump(sorted({previous, shard}))

    def unpin(self, tenant: str) -> None:
        """Release a pinned tenant back to the ring."""
        previous = self._overrides.pop(tenant)
        self._bump(sorted({previous, self.locate(tenant).shard}))
