"""Fluid-flow network fabric with max-min fair bandwidth sharing.

Flows between endpoints receive piecewise-constant rates. A rate
recomputation happens whenever the constraint picture changes: a flow
starts or finishes, a token bucket empties, or a quantized grant arrives.
Between recomputations, transferred bytes advance linearly, so long
simulated timespans cost only a handful of events.

Constraints are of two kinds:

* :class:`FluidLink` — a fixed shared capacity (e.g. the ~20 GiB/s VPC
  ceiling of Section 4.2.2, or a storage service's aggregate bandwidth);
* :class:`~repro.network.shaper.TokenBucketShaper` attached to an
  :class:`Endpoint` direction — a time-varying aggregate ceiling.

The allocation is standard max-min (progressive filling): repeatedly find
the most contended constraint, freeze its members at their fair share, and
subtract.
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import Optional

from repro import units
from repro.network.shaper import (
    TokenBucketShaper,
    advance_shapers,
    earliest_change,
)
from repro.sim import Environment, Event
from repro.telemetry import get_recorder

#: Rate granted to a flow that crosses no finite constraint (100 Gbps).
DEFAULT_FREE_RATE = 100 * units.Gbps

#: Completion slack for float drift, in bytes.
_EPSILON_BYTES = 1e-6

#: Minimum delay for a scheduled rate-recomputation wake. Guarantees the
#: clock strictly advances between wakes, which float-derived wake times
#: (one ulp short of a grant boundary) otherwise cannot.
_MIN_WAKE_DELAY = 1e-9

_creation_order = attrgetter("id")


class FluidLink:
    """A shared, fixed-capacity network constraint."""

    def __init__(self, capacity: float, name: str = "link") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self.name = name

    def __repr__(self) -> str:
        return f"<FluidLink {self.name} {units.gib_per_s(self.capacity):.2f} GiB/s>"


class Endpoint:
    """A network attachment point with optional per-direction shapers.

    ``links`` are implicit shared constraints every flow touching this
    endpoint crosses — e.g. the VPC throughput cap of Section 4.2.2.
    """

    def __init__(self, fabric: "Fabric", name: str,
                 ingress: Optional[TokenBucketShaper] = None,
                 egress: Optional[TokenBucketShaper] = None,
                 links: tuple["FluidLink", ...] = ()) -> None:
        self.fabric = fabric
        self.name = name
        self.ingress = ingress
        self.egress = egress
        self.links = tuple(links)

    def __repr__(self) -> str:
        return f"<Endpoint {self.name}>"


class Flow:
    """A transfer between two endpoints.

    ``size`` may be ``None`` for an open-ended flow (stopped explicitly
    via :meth:`stop`, e.g. an iPerf measurement). ``flow.done`` is an event
    that triggers when the flow completes or is stopped.
    """

    def __init__(self, fabric: "Fabric", src: Endpoint, dst: Endpoint,
                 size: Optional[float],
                 links: tuple[FluidLink, ...] = ()) -> None:
        #: Creation index within the fabric; the canonical flow order.
        self.id = next(fabric._flow_ids)
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.size = size
        self.links = tuple(links)
        self.transferred = 0.0
        self.rate = 0.0
        self.started_at = fabric.env.now
        self.finished_at: Optional[float] = None
        self.done: Event = fabric.env.event()
        # Constraints are fixed at creation; cache them (the allocator
        # walks them millions of times in large simulations).
        self._constraints: tuple[object, ...] = self._collect_constraints()
        self._shapers: tuple[TokenBucketShaper, ...] = tuple(
            c for c in self._constraints
            if isinstance(c, TokenBucketShaper))
        # Opaque identity tokens for the fabric's constraint registry —
        # used only as dict keys, never ordered. The registry pins each
        # constraint object while it has members, so tokens cannot be
        # reused while registered.
        self._keys: tuple[int, ...] = tuple(
            id(c) for c in self._constraints)  # repro-lint: disable=DET004 identity token, never ordered

    @property
    def remaining(self) -> float:
        """Bytes still to transfer; ``inf`` for open-ended flows."""
        if self.size is None:
            return float("inf")
        return max(0.0, self.size - self.transferred)

    @property
    def active(self) -> bool:
        """Whether the flow is still in the fabric."""
        return self.finished_at is None

    def _collect_constraints(self) -> tuple[object, ...]:
        found: list[object] = []
        if self.src.egress is not None:
            found.append(self.src.egress)
        if self.dst.ingress is not None:
            found.append(self.dst.ingress)
        found.extend(self.src.links)
        found.extend(self.dst.links)
        found.extend(self.links)
        return tuple(found)

    def constraints(self) -> tuple[object, ...]:
        """All finite constraints this flow crosses (cached)."""
        return self._constraints

    def shapers(self) -> tuple[TokenBucketShaper, ...]:
        """The token-bucket shapers among the constraints (cached)."""
        return self._shapers

    def stop(self) -> None:
        """Terminate an open-ended flow now."""
        self.fabric.stop_flow(self)

    def __repr__(self) -> str:
        return (f"<Flow #{self.id} {self.src.name}->{self.dst.name} "
                f"{self.transferred:.0f}B rate={self.rate:.0f}B/s>")


class _ConstraintState:
    """Fabric-side registry entry for one constraint with active flows.

    Holds its registry key and a strong reference to the constraint (so
    the identity token stays valid while registered), the member flows
    in creation order, the capacity used in the last allocation (a
    shaper ceiling that moves away from it marks the constraint dirty),
    and — for shapers — the cached sum of member rates in flow-creation
    order (a pure function of the members, so it only needs recomputing
    when the member component is reallocated). Shaper entries are the
    loads :func:`~repro.network.shaper.advance_shapers` walks.
    """

    __slots__ = ("key", "constraint", "is_shaper", "members", "capacity",
                 "consumption")

    def __init__(self, key: int, constraint: object) -> None:
        self.key = key
        self.constraint = constraint
        self.is_shaper = isinstance(constraint, TokenBucketShaper)
        self.members: dict[Flow, None] = {}
        self.capacity = 0.0
        self.consumption = 0.0


class Fabric:
    """Event-driven fluid network simulator.

    Rates are recomputed *incrementally*: the fabric keeps a registry of
    constraints with active flows, marks constraints dirty when their
    membership or allowed rate changes, and reallocates only the
    connected components reachable from dirty constraints. Components
    the change cannot reach keep their rates — and because the
    per-component fill is a pure function of the component's membership
    and capacities (canonical flow-creation order throughout), the
    incremental allocation is bit-for-bit identical to a from-scratch
    one (:meth:`_recompute_rates`, kept as the reference and exercised
    against the incremental path by the property tests).

    What cannot be incremental is time: every update moves every active
    flow and every active bucket to ``now`` and re-derives the next wake
    from all of them. That is two walks per update — :meth:`_sweep`
    before the allocation, :meth:`_schedule_wake` after it — and neither
    makes a call per flow or per shaper.
    """

    def __init__(self, env: Environment,
                 default_rate: float = DEFAULT_FREE_RATE) -> None:
        self.env = env
        self.default_rate = float(default_rate)
        self._flow_ids = itertools.count()
        #: Active flows in creation order (an insertion-ordered set).
        self._flows: dict[Flow, None] = {}
        self._last_sync = env.now
        self._wake_version = 0
        #: Constraint registry, keyed by the flows' identity tokens.
        self._states: dict[int, _ConstraintState] = {}
        #: The registry's shaper entries: what the sweeps walk.
        self._shaped: dict[int, _ConstraintState] = {}
        #: Constraint keys whose component needs reallocating.
        self._dirty: set[int] = set()
        #: Testing hook: force from-scratch recomputation on every
        #: update (the reference the incremental path must match).
        self._force_full = False
        # With telemetry recording, shapers emit events as they advance,
        # so the sweep must visit them in its historical (flow-creation)
        # order; without a recorder the order is unobservable and the
        # registry order is used. Captured at construction, like the
        # shapers do.
        self._ordered_sync = get_recorder().enabled

    # -- public API ---------------------------------------------------------

    def endpoint(self, name: str,
                 ingress: Optional[TokenBucketShaper] = None,
                 egress: Optional[TokenBucketShaper] = None,
                 links: tuple[FluidLink, ...] = ()) -> Endpoint:
        """Create an endpoint attached to this fabric."""
        return Endpoint(self, name, ingress=ingress, egress=egress, links=links)

    def link(self, capacity: float, name: str = "link") -> FluidLink:
        """Create a shared fixed-capacity constraint."""
        return FluidLink(capacity, name=name)

    def transfer(self, src: Endpoint, dst: Endpoint, size: float,
                 links: tuple[FluidLink, ...] = ()) -> Flow:
        """Start a bounded transfer of ``size`` bytes; returns the flow.

        Processes wait on ``flow.done`` for completion.
        """
        if size <= 0:
            raise ValueError(f"transfer size must be positive, got {size}")
        flow = Flow(self, src, dst, float(size), links)
        self._update(arriving=flow)
        return flow

    def open_flow(self, src: Endpoint, dst: Endpoint,
                  links: tuple[FluidLink, ...] = ()) -> Flow:
        """Start an open-ended flow (e.g. a bandwidth measurement)."""
        flow = Flow(self, src, dst, None, links)
        self._update(arriving=flow)
        return flow

    def stop_flow(self, flow: Flow) -> None:
        """Remove ``flow`` from the fabric, triggering its ``done`` event."""
        if not flow.active:
            return
        self.sync_now()
        self._finish(flow)
        self._update()

    def sync_now(self) -> None:
        """Advance transferred bytes and bucket levels to ``env.now``.

        Rates are *not* recomputed; use this before reading
        ``flow.transferred`` or shaper levels from a probe.
        """
        self._sweep()

    # -- internals ------------------------------------------------------------

    def _sweep(self) -> tuple[list[Flow], list]:
        """Move every flow and every active bucket to ``env.now``.

        The pre-allocation walk. Returns what it found on the way: the
        flows that are now complete (creation order) and the shaper
        entries whose ceiling no longer matches the capacity their last
        allocation used. Both are pure functions of the state reached,
        so a caller that only wants the advance may drop them.
        """
        now = self.env.now
        elapsed = now - self._last_sync
        self._last_sync = now
        completed = []
        for flow in self._flows:
            flow.transferred = transferred = (flow.transferred
                                              + flow.rate * elapsed)
            size = flow.size
            if size is not None and size - transferred <= _EPSILON_BYTES:
                completed.append(flow)
        shaped = self._shaped
        if self._ordered_sync:
            loads = {}
            for flow in self._flows:
                for key in flow._keys:
                    if key in shaped and key not in loads:
                        loads[key] = shaped[key]
        else:
            loads = shaped
        return completed, advance_shapers(loads.values(), now, elapsed)

    def _register(self, flow: Flow) -> None:
        now = self.env.now
        states = self._states
        dirty = self._dirty
        for shaper in flow.shapers():
            shaper.on_activate(now)
        for constraint, key in zip(flow.constraints(), flow._keys):
            state = states.get(key)
            if state is None:
                states[key] = state = _ConstraintState(key, constraint)
                if state.is_shaper:
                    self._shaped[key] = state
            state.members[flow] = None
            dirty.add(key)
        self._flows[flow] = None
        if not flow._keys:
            # Crosses no finite constraint: the free rate, immediately
            # (exactly what a one-flow fill with no constraints grants).
            flow.rate = self.default_rate

    def _finish(self, flow: Flow) -> None:
        now = self.env.now
        flow.finished_at = now
        flow.rate = 0.0
        self._flows.pop(flow, None)
        states = self._states
        dirty = self._dirty
        for constraint, key in zip(flow.constraints(), flow._keys):
            state = states.get(key)
            if state is None:
                continue
            state.members.pop(flow, None)
            if state.members:
                dirty.add(key)
            else:
                # Last member gone: drop the registry entry (releasing
                # the identity pin) and idle-refill shapers.
                del states[key]
                dirty.discard(key)
                if state.is_shaper:
                    del self._shaped[key]
                    constraint.on_idle(now)
        # No value: the flow as its own event's value would be a cycle.
        flow.done.succeed()

    def _update(self, arriving: Optional[Flow] = None) -> None:
        """Sweep, admit ``arriving``, complete finished flows, recompute
        rates, schedule the next wake."""
        completed, moved = self._sweep()
        dirty = self._dirty
        for state, _ in moved:
            # Budget exhaustion, grant arrival, chaos degradation.
            dirty.add(state.key)
        if arriving is not None:
            # After the sweep: a shaper this flow activates must not be
            # advanced over the interval it sat idle.
            self._register(arriving)
            if (arriving.size is not None
                    and arriving.size <= _EPSILON_BYTES):
                completed.append(arriving)
        for flow in completed:
            flow.transferred = flow.size
            self._finish(flow)
        if self._force_full:
            self._recompute_rates()
        else:
            self._recompute_dirty()
        self._schedule_wake()

    def _recompute_dirty(self) -> None:
        """Reallocate only the components a change can have affected.

        Dirty seeds are constraints whose membership changed since the
        last allocation plus shapers whose ceiling moved away from the
        capacity used then (budget exhaustion, grant arrival, idle
        refill, chaos degradation). The affected region is the
        union of the connected components containing a seed; everything
        outside it kept both its membership and its capacities, so its
        previous rates are exactly what a full recompute would produce.
        """
        states = self._states
        dirty = self._dirty
        if not dirty:
            return
        self._dirty = set()
        # Closure over the flow/constraint bipartite graph.
        affected: set[Flow] = set()
        stack = [key for key in dirty if key in states]
        seen_keys = set(stack)
        while stack:
            for flow in states[stack.pop()].members:
                if flow not in affected:
                    affected.add(flow)
                    for other in flow._keys:
                        if other not in seen_keys:
                            seen_keys.add(other)
                            stack.append(other)
        self._allocate(affected)

    def _recompute_rates(self) -> None:
        """From-scratch max-min allocation over all active flows.

        The reference implementation: recomputes every component. The
        normal update path uses :meth:`_recompute_dirty`; this method
        backs the ``_force_full`` testing hook, and the equivalence
        property tests check the two paths produce identical rates.
        """
        self._dirty = set()
        self._allocate(self._flows)

    def _allocate(self, flows) -> None:
        """Decompose ``flows`` into components and fill each.

        ``flows`` must be a union of whole connected components.
        """
        component_of: dict[Flow, int] = {}
        component_id = 0
        states = self._states
        for seed in flows:
            if seed in component_of:
                continue
            queue = [seed]
            component_of[seed] = component_id
            while queue:
                for key in queue.pop()._keys:
                    for neighbour in states[key].members:
                        if neighbour not in component_of:
                            component_of[neighbour] = component_id
                            queue.append(neighbour)
            component_id += 1
        components: list[list[Flow]] = [[] for _ in range(component_id)]
        for flow, cid in component_of.items():
            components[cid].append(flow)
        for component in components:
            # Creation order, not discovery order: the fill must be a
            # pure function of the component's membership so incremental
            # recomputation reproduces a full one bit for bit.
            component.sort(key=_creation_order)
            self._fill_component(component)

    def _fill_component(self, flows: list[Flow]) -> None:
        """Progressive filling within one constraint-sharing component.

        ``flows`` must be a whole component in flow-creation order.
        Updates each member's rate, and refreshes the component's
        registry entries (capacity used, cached consumption sums).
        """
        states = self._states
        remaining: dict[int, float] = {}
        live: dict[int, dict[Flow, None]] = {}
        for flow in flows:
            for key in flow._keys:
                if key not in remaining:
                    state = states[key]
                    constraint = state.constraint
                    if state.is_shaper:
                        capacity = constraint.allowed_rate()
                    else:
                        capacity = constraint.capacity
                    state.capacity = capacity
                    remaining[key] = capacity
                    # The component closure makes members ⊆ flows; the
                    # copy keeps their creation order.
                    live[key] = dict(state.members)
        unfrozen = set(flows)
        while unfrozen:
            best_key = None
            best_share = None
            for key, flows_here in live.items():
                if not flows_here:
                    continue
                left = remaining[key]
                share = (left if left > 0.0 else 0.0) / len(flows_here)
                if best_share is None or share < best_share:
                    best_share = share
                    best_key = key
            if best_key is None:
                # No finite constraints left: grant the default free rate.
                for flow in flows:
                    if flow in unfrozen:
                        flow.rate = self.default_rate
                break
            for flow in list(live[best_key]):
                flow.rate = best_share
                unfrozen.discard(flow)
                for key in flow._keys:
                    remaining[key] -= best_share
                    live[key].pop(flow, None)
        # Refresh the cached consumption sums (flow-creation order).
        for key in remaining:
            state = states[key]
            if state.is_shaper:
                total = 0.0
                for flow in state.members:
                    total += flow.rate
                state.consumption = total

    def _schedule_wake(self) -> None:
        """The post-allocation walk: wake at the next completion or
        shaper ceiling change, whichever comes first."""
        now = self.env.now
        wake_at = math.inf
        for flow in self._flows:
            rate = flow.rate
            size = flow.size
            if rate > 0 and size is not None:
                # Every flow still here has more than the completion
                # slack left, so the remainder is positive.
                upcoming = now + (size - flow.transferred) / rate
                if upcoming < wake_at:
                    wake_at = upcoming
        wake_at = earliest_change(self._shaped.values(), now, wake_at)
        self._wake_version += 1
        if wake_at == math.inf:
            return
        version = self._wake_version
        delay = max(_MIN_WAKE_DELAY, wake_at - now)
        timeout = self.env.timeout(delay)
        timeout.callbacks.append(lambda _event: self._on_wake(version))

    def _on_wake(self, version: int) -> None:
        if version != self._wake_version:
            return  # superseded by a newer recomputation
        self._update()
