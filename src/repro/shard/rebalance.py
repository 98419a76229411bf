"""The rebalancer: splits hot shards, merges cold ones, on the clock.

The control loop the paper's elasticity argument implies: per-shard
admission capacity is fixed (a Lambda account quota per cell), so the
*fleet* absorbs skew by changing shape. Each :meth:`Rebalancer.step`
reads one load window from the router (submissions since the last step
plus current backlog), and

* **splits** the hottest shard when its load exceeds ``hot_factor``
  times the fleet mean (skew the hash ring alone cannot flatten —
  a Zipf head tenant pinned to one shard);
* **merges** the coldest shard into the lightest remaining one when
  its load falls below ``cold_factor`` times the mean — capacity
  consolidation on the trough of the diurnal cycle.

At most one split and one merge fire per step, so churn is bounded by
the control cadence. Every decision is deterministic: candidates are
ranked by (load, shard id), and the seeded stream breaks exact load
ties — the same trace and seed always produce the same fleet history.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import RandomStreams
from repro.telemetry import get_recorder


@dataclass(frozen=True)
class RebalanceEvent:
    """One control-plane decision, as recorded fleet history."""

    at: float
    action: str          # "split" | "merge"
    shard: str           # the shard acted on
    peer: str            # the split child or the merge target
    load: int            # the acted-on shard's load this window
    mean_load: float     # fleet mean load this window
    moved: int           # requests re-homed by the move


class Rebalancer:
    """Drives split/merge decisions from the router's load windows."""

    def __init__(self, router, seed: int = 0,
                 hot_factor: float = 2.0,
                 cold_factor: float = 0.25,
                 min_shards: int = 1,
                 max_shards: int = 64,
                 min_window: int = 1) -> None:
        if hot_factor <= 1.0:
            raise ValueError("hot_factor must exceed 1.0")
        if not 0.0 <= cold_factor < 1.0:
            raise ValueError("cold_factor must be in [0, 1)")
        if min_shards < 1 or max_shards < min_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")
        self.router = router
        self.hot_factor = hot_factor
        self.cold_factor = cold_factor
        self.min_shards = min_shards
        self.max_shards = max_shards
        #: Ignore windows with less total load than this — thresholds
        #: on a near-empty window are noise, not skew.
        self.min_window = min_window
        self._rng = RandomStreams(seed).stream("shard.rebalancer")
        self.events: list[RebalanceEvent] = []
        self.steps = 0
        self._telemetry = get_recorder()
        if self._telemetry is not None:
            self._load_series: dict = {}

    # -- load signal -------------------------------------------------------

    def _loads(self) -> dict[str, int]:
        window = self.router.take_load_window()
        return {shard: window[shard]
                + self.router.gateways[shard].total_pending
                for shard in sorted(window)}

    def _pick(self, candidates: list[str], loads: dict[str, int],
              extreme) -> str:
        """The candidate with the extreme load; seeded tie-break."""
        target = extreme(loads[shard] for shard in candidates)
        tied = [shard for shard in candidates if loads[shard] == target]
        if len(tied) == 1:
            return tied[0]
        return tied[int(self._rng.integers(0, len(tied)))]

    # -- the control step --------------------------------------------------

    def step(self, now: float) -> list[RebalanceEvent]:
        """Run one control decision at virtual time ``now``."""
        self.steps += 1
        loads = self._loads()
        if self._telemetry is not None:
            for shard in loads:
                series = self._load_series.get(shard)
                if series is None:
                    series = self._load_series[shard] = \
                        self._telemetry.timeseries(f"shard.load.{shard}")
                series.sample(now, float(loads[shard]))
        total = sum(loads.values())
        if not loads or total < self.min_window:
            return []
        mean = total / len(loads)
        fired: list[RebalanceEvent] = []

        if len(loads) < self.max_shards:
            hot = self._pick(sorted(loads), loads, max)
            if loads[hot] > self.hot_factor * mean \
                    and self.router.directory.can_split(hot):
                before = self.router.migrated
                child = self.router.split_shard(hot)
                fired.append(RebalanceEvent(
                    at=now, action="split", shard=hot, peer=child,
                    load=loads[hot], mean_load=mean,
                    moved=self.router.migrated - before))

        survivors = sorted(set(loads) - {event.shard for event in fired})
        if len(self.router.gateways) > self.min_shards and len(survivors) > 1:
            cold = self._pick(survivors, loads, min)
            if loads[cold] < self.cold_factor * mean:
                target = self._pick(
                    sorted(set(survivors) - {cold}), loads, min)
                moved = self.router.merge_shard(cold, target)
                fired.append(RebalanceEvent(
                    at=now, action="merge", shard=cold, peer=target,
                    load=loads[cold], mean_load=mean, moved=moved))

        self.events.extend(fired)
        if self._telemetry is not None:
            for event in fired:
                self._telemetry.event(
                    now, f"rebalance.{event.action}", category="rebalance",
                    shard=event.shard, peer=event.peer, load=event.load,
                    moved=event.moved)
        return fired

    # -- views -------------------------------------------------------------

    def history(self) -> list[dict]:
        """The decision log as JSON-ready rows (stable keys)."""
        return [{
            "at": round(event.at, 9),
            "action": event.action,
            "shard": event.shard,
            "peer": event.peer,
            "load": event.load,
            "mean_load": round(event.mean_load, 9),
            "moved": event.moved,
        } for event in self.events]
