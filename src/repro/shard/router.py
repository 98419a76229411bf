"""The shard router: the fleet's O(1)-per-event data plane.

A :class:`ShardRouter` fronts a fleet of
:class:`~repro.serve.gateway.QueryGateway` shards over a dense key
space: every tenant is ``f"{prefix}{key}"`` for an integer key below
the space's size, hashed onto the ring once, when the router is built.
:meth:`ShardRouter.route_batch` routes a whole slice of a trace at
once: for each event it makes the decision a scalar router would make
in trace order — probe a bounded route cache (falling back to the
directory on a miss), offer the query to the routed shard with the
route's epoch, and, if the shard's fence has advanced because a
rebalance superseded the route, refresh from the directory and retry
once — and hands the admissions back as per-shard op streams instead of
performing them. The route cache is arrays over the keys
(:class:`_KeyedRoutes`), which ``route_batch`` and ``_refresh`` (so the
control plane's re-homing too) read and write. The retry is bounded:
the router is the only mutator of the directory and re-syncs every live
shard's fence after each mutation, so a freshly fetched route is never
stale.

The control plane (``split_shard`` / ``merge_shard`` / ``fail_shard``)
keeps the admitted-work invariant: whenever a shard is retired or loses
key ranges, its backlog is drained in arrival order and re-homed on the
shards the directory now names — admitted queries are never dropped,
and the fleet roll-up counts every re-homed request as recovered.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.serve.gateway import QueryGateway, Tenant
from repro.serve.metrics import ServingTally, roll_up
from repro.shard.directory import PartitionDirectory, Route
from repro.shard.ring import hash_keys
from repro.telemetry import LatencyHistogram, get_recorder

#: Route-cache capacity: bounds router memory at O(cache), not
#: O(tenants ever seen); eviction is FIFO on insertion order, so it is
#: deterministic and O(1).
ROUTE_CACHE_SIZE = 65536


#: Op kinds in a :meth:`ShardRouter.route_batch` stream: offer the
#: query; this shard fenced the event's stale route and the refreshed
#: route led elsewhere (nothing to offer); offer the query on the retry
#: of a route another shard fenced.
OFFER, FENCED, RETRY = 0, 1, 2

#: :meth:`_KeyedRoutes.touch` classifies events in blocks of a
#: sixteenth of the cache: a larger block puts more hits at risk of
#: eviction inside it (a scalar step each) and sorts more keys at once,
#: a smaller one pays a block's fixed array-call cost more often.
#: Measured flat (0.15-0.22 s per 1.5M events) from 1/2 to 1/32.
_BLOCKS_PER_CACHE = 16


class _KeyedRoutes:
    """The FIFO route cache of a dense key space, as counters.

    Nothing leaves an insertion-ordered cache but its oldest entry, so
    "``key`` is cached" is ``seq[key] > inserts - capacity``, where
    ``inserts`` counts insertions so far and ``seq[key]`` is the number
    of the key's last one (0 = never). Refreshing a cached key rewrites
    its route and leaves ``seq`` alone: an entry keeps its place in the
    eviction order until it is evicted. A route is stored as its
    code: the index into the ``(shard, epoch)`` routes seen so far, a
    few per directory mutation.
    """

    def __init__(self, prefix: str, size: int, capacity: int) -> None:
        self.prefix = prefix
        self.capacity = capacity
        #: Ring position of every key: hashed once, here.
        self.hashes = hash_keys(prefix, range(size))
        self.seq = np.zeros(size, dtype=np.int32)
        self.code = np.zeros(size, dtype=np.int16)
        self.inserts = 0
        self.routes: list[Route] = []
        self._codes: dict[Route, int] = {}

    def key(self, tenant: str) -> int:
        """The dense key of a tenant name (``KeyError`` outside the space)."""
        digits = tenant[len(self.prefix):]
        if tenant.startswith(self.prefix) and digits.isascii() \
                and digits.isdigit():
            key = int(digits)
            if key < len(self.seq) and str(key) == digits:
                return key
        raise KeyError(f"tenant {tenant!r} is outside the key space "
                       f"{self.prefix!r} x {len(self.seq)}")

    def code_of(self, route: Route) -> int:
        code = self._codes.get(route)
        if code is None:
            code = self._codes[route] = len(self.routes)
            if code > np.iinfo(np.int16).max:
                raise OverflowError("more routes issued than int16 codes")
            self.routes.append(route)
        return code

    def put(self, key: int, route: Route) -> None:
        if self.seq[key] <= max(self.inserts - self.capacity, 0):
            self.inserts += 1
            self.seq[key] = self.inserts
        self.code[key] = self.code_of(route)

    def touch(self, keys: np.ndarray, codes: np.ndarray,
              stale: np.ndarray) -> tuple[list[int], list[int]]:
        """Pass ``keys`` through the cache in order, a block at a time.

        ``codes[i]`` is the code a refresh at event ``i`` would store
        and ``stale`` flags, by code, the routes a gateway would fence
        (neither changes during the call). Returns the positions of the
        events that found such a route cached, and those routes' codes;
        every touched key ends up cached under its ``codes[i]``.

        Evictions are sequential, so a block is a fraction of the
        capacity (:data:`_BLOCKS_PER_CACHE`). In a block of ``size``
        events starting at ``inserts = before``, a key not cached at
        the start misses at its first occurrence and hits afterwards
        (fewer insertions follow than would evict it again); a cached
        key with ``seq > before + size - capacity`` hits throughout;
        only touches of the ``size`` oldest entries depend on how many
        insertions precede them, and a scalar loop over those events
        alone settles them.
        """
        seq, code, capacity = self.seq, self.code, self.capacity
        block = max(1, capacity // _BLOCKS_PER_CACHE)
        fenced_at: list[int] = []
        fenced_code: list[int] = []
        for lo in range(0, len(keys), block):
            k = keys[lo:lo + block]
            before = self.inserts
            last = seq[k]
            cached = last > max(before - capacity, 0)
            order = k.argsort(kind="stable")
            ranked = k[order]
            first = np.empty(len(k), dtype=bool)
            first[order[0]] = True
            first[order[1:]] = ranked[1:] != ranked[:-1]
            miss = first & ~cached
            at_risk = np.flatnonzero(
                cached & (last <= before + len(k) - capacity))
            if len(at_risk):
                # Evicted by now iff seq <= inserts so far - capacity.
                behind = before - capacity
                back = set()  # keys re-inserted earlier in this block
                for i, key, number, misses in zip(
                        at_risk.tolist(), k[at_risk].tolist(),
                        last[at_risk].tolist(),
                        miss.cumsum()[at_risk].tolist()):
                    if number <= behind + misses + len(back) \
                            and key not in back:
                        back.add(key)
                        miss[i] = True
            held = code[k]
            found = np.flatnonzero(first & ~miss & stale[held])
            fenced_at += (lo + found).tolist()
            fenced_code += held[found].tolist()
            numbered = miss.cumsum()
            seq[k[miss]] = before + numbered[miss]
            code[k] = codes[lo:lo + block]
            self.inserts = before + int(numbered[-1])
        return fenced_at, fenced_code


class ShardRouter:
    """Routes the tenants of ``key_space`` onto a fleet of gateway shards."""

    def __init__(self, env, key_space: tuple[str, int], shards: int = 2,
                 vnodes: Optional[int] = None,
                 max_pending: float = math.inf,
                 default_tenant: Optional[Tenant] = None,
                 slo_latency_s: float = math.inf,
                 gateway_factory: Optional[Callable[..., QueryGateway]]
                 = None) -> None:
        self.env = env
        self.directory = PartitionDirectory(shards=shards, vnodes=vnodes)
        self.max_pending = max_pending
        self.default_tenant = default_tenant
        self.slo_latency_s = slo_latency_s
        self._gateway_factory = gateway_factory or QueryGateway
        #: Live gateways by shard id.
        self.gateways: dict[str, QueryGateway] = {}
        #: Serving metrics of every shard *ever* — retired shards stay
        #: in the roll-up so conservation holds across rebalances.
        self.shard_metrics: dict[str, ServingTally] = {}
        self._keyed = _KeyedRoutes(*key_space, capacity=ROUTE_CACHE_SIZE)
        #: Submissions per live shard since the last window take —
        #: the rebalancer's load signal.
        self._window: dict[str, int] = {}
        self.submits = 0
        self.stale_retries = 0
        self.migrated = 0
        #: Requests re-homed out of merged or failed shards: queries
        #: that would have been lost without recovery.
        self.recovered = 0
        self._telemetry = recorder = get_recorder()
        if recorder is not None:
            self._submit_counter = recorder.counter("router.submits")
            self._stale_counter = recorder.counter("router.stale_retries")
        for shard in self.directory.shards():
            self._spawn(shard)

    # -- fleet membership --------------------------------------------------

    def shards(self) -> list[str]:
        """Live shard ids, sorted."""
        return sorted(self.gateways)

    def _spawn(self, shard: str) -> QueryGateway:
        metrics = ServingTally(self.slo_latency_s, LatencyHistogram())
        gateway = self._gateway_factory(
            self.env, metrics=metrics, max_pending=self.max_pending,
            shard_id=shard, default_tenant=self.default_tenant)
        gateway.epoch = self.directory.shard_epoch(shard)
        self.gateways[shard] = gateway
        self.shard_metrics[shard] = metrics
        self._window[shard] = 0
        return gateway

    def _sync_fences(self) -> None:
        # After any directory mutation, every live shard's fence tracks
        # its directory epoch; O(shards), never O(tenants).
        for shard in sorted(self.gateways):
            self.gateways[shard].epoch = self.directory.shard_epoch(shard)

    # -- data plane --------------------------------------------------------

    def _refresh(self, tenant: str) -> Route:
        keyed = self._keyed
        # The key's ring position was hashed with the key space.
        key = keyed.key(tenant)
        route = self.directory.locate_hash(int(keyed.hashes[key]))
        keyed.put(key, route)
        return route

    def route_batch(self, start: int, times: np.ndarray, keys: np.ndarray,
                    plans: np.ndarray) -> dict[str, tuple]:
        """Route a slice of a trace into per-shard op streams, as arrays.

        Event ``start + i`` is the tenant of dense key ``keys[i]``
        offering ``plans[i]`` at ``times[i]``. Every routing decision
        is the one a scalar router would make for the same events in
        the same order — cache probe, FIFO eviction, fence check, one
        refresh on a stale route — and ``submits``, ``stale_retries``, the
        load window and the fenced gateway's ``stale_rejections``
        advance as they would; only the admissions themselves are left
        to the caller, as one column tuple ``(times, indices, keys,
        plans, kinds)`` per shard with work, in event order. ``kinds``
        is ``None`` — every op an :data:`OFFER` — unless a stale route
        was fenced and its refresh led to another shard: then the
        fencing shard carries a :data:`FENCED` op (nothing to offer)
        and the new owner a :data:`RETRY` (offer, on the retry).

        The directory must not change during the call, so the caller
        slices the trace at its control ticks; that is what makes the
        slice a pure function of arrays. Every directory mutation bumps
        or retires the shard that loses keys, so a cached route that is
        live and un-fenced names the ring owner: the target shard of
        every event is one ``searchsorted`` of the precomputed key
        hashes against the ring points, and the cache only decides
        which events count as misses and which met a stale route
        (:meth:`_KeyedRoutes.touch`). A live shard whose fence is out
        of step with the directory breaks that argument; it raises, as
        a scalar router must when a refreshed route is fenced.
        """
        cache = self._keyed
        gateways = self.gateways
        directory = self.directory
        shards, owner = directory.ring.lookup_hashes(cache.hashes[keys])
        current = np.array([cache.code_of(directory._shard_routes[shard])
                            for shard in shards], dtype=np.int16)
        stale = np.array([route.shard in gateways
                          and route.epoch != gateways[route.shard].epoch
                          for route in cache.routes])
        out_of_step = np.flatnonzero(stale[current])
        if len(out_of_step):
            raise RuntimeError(
                f"route of shard {shards[out_of_step[0]]!r} stale after "
                f"directory refresh")
        at, codes = cache.touch(keys, current[owner], stale)
        moved = []
        for position, code in zip(at, codes):
            fenced = cache.routes[code].shard
            gateways[fenced].stale_rejections += 1
            if shards[owner[position]] != fenced:
                moved.append((position, shards.index(fenced)))
        retries = len(at)
        self.submits += len(keys)
        self.stale_retries += retries
        if self._telemetry is not None:
            self._submit_counter.inc(len(keys))
            self._stale_counter.inc(retries)
        counts = np.bincount(owner, minlength=len(shards))
        for shard, offers in zip(shards, counts.tolist()):
            self._window[shard] += offers

        # Group by shard, event order kept; a FENCED op is one more row
        # on the fencing shard at its event's position.
        position = np.arange(len(keys))
        kinds = None
        if moved:
            at, fenced = (np.array(column) for column in zip(*moved))
            kinds = np.zeros(len(keys) + len(moved), dtype=np.int8)
            kinds[at] = RETRY
            kinds[len(keys):] = FENCED
            position = np.concatenate([position, at])
            owner = np.concatenate([owner, fenced.astype(owner.dtype)])
            counts = np.bincount(owner, minlength=len(shards))
            order = np.lexsort((position, owner))
        else:
            order = owner.argsort(kind="stable")
        streams: dict[str, tuple] = {}
        lo = 0
        for shard, hi in zip(shards, counts.cumsum().tolist()):
            if hi > lo:
                rows = order[lo:hi]
                at = position[rows]
                streams[shard] = (times[at], start + at, keys[at], plans[at],
                                  None if kinds is None else kinds[rows])
            lo = hi
        return streams

    # -- rebalancer signals ------------------------------------------------

    def take_load_window(self) -> dict[str, int]:
        """Per-shard submissions since the last take (and reset)."""
        window = {shard: self._window[shard]
                  for shard in sorted(self._window)}
        for shard in window:
            self._window[shard] = 0
        return window

    def pending_total(self) -> int:
        """Queued work across all live shards."""
        return sum(self.gateways[shard].total_pending
                   for shard in sorted(self.gateways))

    def roll_up(self) -> dict:
        """Fleet-level metrics roll-up, reconciled against the backlog."""
        return roll_up({shard: self.shard_metrics[shard]
                        for shard in sorted(self.shard_metrics)},
                       pending=self.pending_total(),
                       recovered=self.recovered)

    # -- control plane -----------------------------------------------------

    def _rehome(self, orphans) -> None:
        """Adopt requests drained from a merged or failed shard onto
        their current directory owners: each is rescued, and all are
        counted as recovered in the fleet roll-up."""
        for request in orphans:
            request.rescued = True
            target = self._refresh(request.tenant).shard
            self.gateways[target].adopt(request)
        self.recovered += len(orphans)

    def _resettle(self, owner: str) -> int:
        """Re-home the queued requests of ``owner`` that remapped away."""
        gateway = self.gateways[owner]
        stay: list = []
        moved = 0
        for request in gateway.drain_backlog():
            target = self._refresh(request.tenant).shard
            if target == owner:
                stay.append(request)
            else:
                self.gateways[target].adopt(request)
                moved += 1
        for request in stay:
            gateway.adopt(request)
        return moved

    def split_shard(self, hot: str) -> str:
        """Split a hot shard; remapped backlog follows its tenants."""
        start = self.env.now
        new = self.directory.split_shard(hot)
        self._spawn(new)
        self._sync_fences()
        moved = self._resettle(hot)
        self.migrated += moved
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.split:{hot}", start, self.env.now,
                category="rebalance",
                attrs={"hot": hot, "new": new, "moved": moved})
        return new

    def merge_shard(self, cold: str, target: str) -> int:
        """Merge a cold shard away; its backlog is recovered, not lost."""
        start = self.env.now
        gateway = self.gateways.pop(cold)
        self._window.pop(cold)
        orphans = gateway.drain_backlog()
        self.directory.merge_shard(cold, target)
        self._sync_fences()
        self._rehome(orphans)
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.merge:{cold}", start, self.env.now,
                category="rebalance",
                attrs={"cold": cold, "target": target,
                       "recovered": len(orphans)})
        return len(orphans)

    def fail_shard(self, dead: str) -> int:
        """Fail a shard; the directory reassigns, the backlog is rescued.

        Models a shard loss with a durable admission log: queued (not
        yet dispatched) requests are re-homed on the heir shards the
        ring names, so no admitted query disappears. Returns the number
        of recovered requests.
        """
        start = self.env.now
        gateway = self.gateways.pop(dead)
        self._window.pop(dead)
        orphans = gateway.drain_backlog()
        heirs = self.directory.fail_shard(dead)
        self._sync_fences()
        self._rehome(orphans)
        if self._telemetry is not None:
            self._telemetry.record_span(
                f"shard.fail:{dead}", start, self.env.now,
                category="rebalance",
                attrs={"dead": dead, "heirs": ",".join(heirs),
                       "recovered": len(orphans)})
        return len(orphans)
