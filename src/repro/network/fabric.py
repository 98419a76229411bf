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

import heapq
import itertools
import math
from operator import attrgetter
from typing import Optional

from repro import units
from repro.network.shaper import (
    _TIME_TOLERANCE,
    ROUNDING_MARGIN,
    SWEEP_LOG_CAP,
    TokenBucketShaper,
    catch_up,
    ceiling,
    deferral_key,
    earliest_change,
    replay,
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

#: Moving flows at which a fabric starts to defer time, for good. A
#: deferred update pays a catch-up and a heap entry per entity it
#: touches; a walk pays a visit per flow and bucket. Narrow fabrics walk
#: until a sweep finds this many moving flows.
_DEFER_AT = 16

_creation_order = attrgetter("id")


class FluidLink:
    """A shared, fixed-capacity network constraint."""

    def __init__(self, capacity: float, name: str = "link") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = float(capacity)
        self.name = name


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
        self._transferred = 0.0
        self.rate = 0.0
        self.finished_at: Optional[float] = None
        self.done: Event = fabric.env.event()
        # Constraints are fixed at creation; cache them (the allocator
        # walks them millions of times in large simulations).
        self._constraints: tuple[object, ...] = tuple(
            shaper for shaper in (src.egress, dst.ingress)
            if shaper is not None) + src.links + dst.links + self.links
        self._shapers: tuple[TokenBucketShaper, ...] = tuple(
            c for c in self._constraints
            if isinstance(c, TokenBucketShaper))
        # Opaque identity tokens for the fabric's constraint registry —
        # used only as dict keys, never ordered. The registry pins each
        # constraint object while it has members, so tokens cannot be
        # reused while registered.
        self._keys: tuple[int, ...] = tuple(
            id(c) for c in self._constraints)  # repro-lint: disable=DET004 identity token, never ordered
        #: The fabric's deferral bookkeeping: sweeps applied, and the
        #: token of the flow's live heap entry (-1: none).
        self._synced = 0
        self._token = -1

    @property
    def active(self) -> bool:
        """Whether the flow is still in the fabric."""
        return self.finished_at is None

    @property
    def transferred(self) -> float:
        """Bytes moved so far, as of the fabric's last sweep."""
        self.fabric._catch_up_flow(self)
        return self._transferred

    def stop(self) -> None:
        """Terminate an open-ended flow now."""
        self.fabric.stop_flow(self)


class _ConstraintState:
    """Fabric-side registry entry for one constraint with active flows.

    Holds its registry key and a strong reference to the constraint (so
    the identity token stays valid while registered), the member flows
    in creation order, the capacity used in the last allocation (a
    shaper ceiling that moves away from it marks the constraint dirty),
    and — for shapers — the cached sum of member rates in flow-creation
    order (a pure function of the members, so it only needs recomputing
    when the member component is reallocated), the owning fabric, and
    the same deferral bookkeeping a flow has.
    """

    __slots__ = ("key", "constraint", "is_shaper", "members", "capacity",
                 "consumption", "fabric", "_synced", "_token")

    def __init__(self, key: int, constraint: object) -> None:
        self.key = key
        self.constraint = constraint
        self.is_shaper = isinstance(constraint, TokenBucketShaper)
        self.members: dict[Flow, None] = {}
        self.capacity = 0.0
        self.consumption = 0.0
        self.fabric = None
        self._synced = 0
        self._token = -1


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
    one (the property tests run each scenario both ways).

    Time is deferred the same way. An update appends its sweep (the
    elapsed time and the grant horizon) to a log, and a flow or bucket is
    brought to ``now`` only when the update touches it: its component is
    reallocated, its completion, exhaustion or grant can fall due, or a
    caller reads it. Catching up applies the logged sweeps in order with
    the walk's arithmetic (:func:`~repro.network.shaper.replay` for a
    bucket), so it reaches the same floats. The next wake
    comes from heaps of per-entity deferral keys — lower bounds of each
    entity's wake term, exact for a bucket's next grant — and every
    entity whose key is within reach of the running minimum is evaluated
    exactly, so the wake is the eager walk's minimum to the bit.

    A fabric walks every moving flow and every active bucket at every
    update instead, in the historical (flow-creation) order, until a
    sweep finds :data:`_DEFER_AT` moving flows; from then on it defers
    for the rest of its life. A fabric with a recorder on (buckets
    sample every advance) never defers: that walk is the oracle the
    deferred path is tested against.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._flow_ids = itertools.count()
        #: Active flows in creation order (an insertion-ordered set).
        self._flows: dict[Flow, None] = {}
        #: The active flows whose rate is not 0: the flows time moves
        #: (``transferred + 0.0 * elapsed`` is ``transferred``).
        self._moving: dict[Flow, None] = {}
        self._last_sync = env.now
        self._wake_version = 0
        #: Constraint registry, keyed by the flows' identity tokens.
        self._states: dict[int, _ConstraintState] = {}
        #: The registry's shaper entries.
        self._shaped: dict[int, _ConstraintState] = {}
        #: Constraint keys whose component needs reallocating.
        self._dirty: set[int] = set()
        # Captured at construction, like the shapers do: with telemetry
        # recording, every update walks every flow and bucket.
        self._recorded = get_recorder() is not None
        #: Whether updates defer time (see ``_DEFER_AT``); never unset.
        self._deferred = False
        #: The sweep log: per sweep, the seconds it covered and its grant
        #: horizon. Item ``i`` is sweep ``_log_base + i`` of the
        #: ``_logged`` so far; flows and shaper entries count the sweeps
        #: they applied in ``_synced``.
        self._elapsed: list[float] = []
        self._horizons: list[float] = []
        self._log_base = 0
        self._logged = 0
        #: Deferral keys, as heaps of ``(key, token, entity)``: lower
        #: bounds (flows, draining buckets) and exact grant times. An
        #: entry whose token is not its entity's ``_token`` is stale.
        self._bounds: list[tuple[float, int, object]] = []
        self._grants: list[tuple[float, int, object]] = []
        self._last_token = 0
        #: Flows and shaper entries the update in progress touched:
        #: re-keyed at its end.
        self._touched_flows: dict[Flow, None] = {}
        self._touched_states: dict[_ConstraintState, None] = {}

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
        self._catch_up_flow(flow)
        self._finish(flow)
        self._update()

    def sync_now(self) -> None:
        """Advance transferred bytes and bucket levels to ``env.now``.

        Rates are *not* recomputed. ``flow.transferred`` and shaper
        levels read as of the last sweep, so a probe calls this first.
        """
        if self._deferred:
            self._log_sweep(self.env.now)
        else:
            self._walk()

    # -- internals: the sweep -------------------------------------------------

    def _sweep(self) -> tuple[list[Flow], list]:
        """Start an update: move time to ``env.now``.

        Returns what the sweep found: the flows that are now complete
        (creation order) and ``(shaper entry, ceiling)`` for the entries
        whose ceiling no longer matches the capacity their last
        allocation used. Deferred, only the entities whose keys fall due
        are touched; the rest provably have nothing to report.
        """
        if not self._deferred:
            if self._recorded or len(self._moving) < _DEFER_AT:
                return self._walk()
            # Walking leaves everything at the last sweep: key it all
            # from there.
            self._deferred = True
            self._key_all()
        now = self.env.now
        elapsed = self._log_sweep(now)
        horizon = now + _TIME_TOLERANCE
        completed = []
        moved = []
        due = []
        for heap in (self._bounds, self._grants):
            while heap and not heap[0][0] > horizon:
                entry = heapq.heappop(heap)
                entity = entry[2]
                if entity._token == entry[1]:
                    due.append(entity)
        for entity in due:
            if entity.__class__ is Flow:
                self._touch_flow(entity)
                size = entity.size
                if (size is not None
                        and size - entity._transferred <= _EPSILON_BYTES):
                    completed.append(entity)
            elif entity.members:
                self._touch_state(entity)
                shaper = entity.constraint
                current = ceiling(shaper)
                if shaper._telemetry is not None and elapsed > 0:
                    shaper._record(now, current)
                if current != entity.capacity:
                    moved.append((entity, current))
        if len(completed) > 1:
            completed.sort(key=_creation_order)
        return completed, moved

    def _walk(self) -> tuple[list[Flow], list]:
        """The eager sweep: move every flow and every active bucket to
        ``env.now``, buckets in one :func:`~repro.network.shaper.replay`
        call in the historical order (first appearance along the flows in
        creation order), and report as :meth:`_sweep`.
        """
        now = self.env.now
        elapsed = now - self._last_sync
        self._last_sync = now
        completed = []
        for flow in self._moving:
            flow._transferred = transferred = (flow._transferred
                                               + flow.rate * elapsed)
            size = flow.size
            if size is not None and size - transferred <= _EPSILON_BYTES:
                completed.append(flow)
        if len(completed) > 1:
            completed.sort(key=_creation_order)
        shaped = self._shaped
        loads = {}
        for flow in self._flows:
            for key in flow._keys:
                if key in shaped and key not in loads:
                    loads[key] = shaped[key]
        if elapsed > 0:
            replay(loads.values(), (elapsed,), (now + _TIME_TOLERANCE,))
        moved = []
        for state in loads.values():
            shaper = state.constraint
            current = ceiling(shaper)
            if shaper._telemetry is not None and elapsed > 0:
                shaper._record(now, current)
            if current != state.capacity:
                moved.append((state, current))
        return completed, moved

    def _log_sweep(self, now: float) -> float:
        """Log the sweep to ``now``; returns its elapsed time.

        A sweep with ``elapsed == 0`` moves no flow (``+ rate * 0.0``) and
        no bucket (the walk skips it too: grants wait for a sweep that
        covers time), so it is not logged. A full log is emptied first
        (:meth:`_rebase`).
        """
        elapsed = now - self._last_sync
        if elapsed > 0:
            if self._logged - self._log_base >= SWEEP_LOG_CAP:
                self._rebase()
            self._last_sync = now
            self._logged += 1
            self._elapsed.append(elapsed)
            self._horizons.append(now + _TIME_TOLERANCE)
        return elapsed

    def _rebase(self) -> None:
        """Bring every moving flow and shaper entry to the log's end,
        re-key each from there and empty the log: no key is ever older
        than :data:`SWEEP_LOG_CAP` sweeps, the span its margin covers."""
        self._catch_up_all()
        self._key_all()

    def _catch_up_all(self) -> None:
        """Bring every flow and shaper entry to the log's end and empty
        the log. (A flow at rate 0 only records that it is there, so
        that every flow's ``_synced`` stays inside the log.)"""
        for flow in self._flows:
            self._catch_up_flow(flow)
        for state in self._shaped.values():
            self._catch_up_state(state)
        self._log_base = self._logged
        self._elapsed.clear()
        self._horizons.clear()

    def _key_all(self) -> None:
        now = self._last_sync
        for flow in self._moving:
            self._push_flow(flow, now)
        for state in self._shaped.values():
            self._push_state(state, now)

    # -- internals: deferral ---------------------------------------------------

    def _catch_up_flow(self, flow: Flow) -> None:
        """Apply the logged sweeps ``flow`` has not: ``rate × elapsed``
        each, added in order (the eager walk's fold)."""
        end = self._logged
        synced = flow._synced
        if synced == end:
            return
        flow._synced = end
        rate = flow.rate
        if rate:
            transferred = flow._transferred
            for elapsed in self._elapsed[synced - self._log_base:]:
                transferred = transferred + rate * elapsed
            flow._transferred = transferred

    def _catch_up_state(self, state: _ConstraintState) -> None:
        """Apply the logged sweeps a shaper entry has not."""
        end = self._logged
        synced = state._synced
        if synced == end:
            return
        state._synced = end
        catch_up(state, self._elapsed, self._horizons,
                 synced - self._log_base)

    def _touch_flow(self, flow: Flow) -> None:
        self._catch_up_flow(flow)
        flow._token = -1
        self._touched_flows[flow] = None

    def _touch_state(self, state: _ConstraintState) -> None:
        self._catch_up_state(state)
        state._token = -1
        self._touched_states[state] = None

    def _push_flow(self, flow: Flow, now: float) -> None:
        """Key ``flow``, up to date as of ``now``: its analytic completion
        time, less the completion slack and the rounding margin."""
        size = flow.size
        rate = flow.rate
        if size is None or not rate:
            flow._token = -1  # open, stalled at rate 0, or finished
            return
        transferred = flow._transferred  # never negative
        key = (now + (size - transferred - _EPSILON_BYTES) / rate
               - ROUNDING_MARGIN * ((now if now > 0.0 else -now)
                                    + (size + transferred) / rate))
        self._last_token = flow._token = token = self._last_token + 1
        heapq.heappush(self._bounds, (key, token, flow))

    def _push_state(self, state: _ConstraintState, now: float) -> None:
        """Key a shaper entry, up to date as of ``now``, by
        :func:`~repro.network.shaper.deferral_key`."""
        if not state.members:
            return  # left the registry
        key, exact = deferral_key(state, now)
        if key == math.inf:
            state._token = -1
            return
        self._last_token = state._token = token = self._last_token + 1
        heapq.heappush(self._grants if exact else self._bounds,
                       (key, token, state))

    # -- internals: registry and allocation -------------------------------------

    def _register(self, flow: Flow) -> None:
        now = self.env.now
        states = self._states
        dirty = self._dirty
        synced = self._logged
        flow._synced = synced
        for shaper in flow._shapers:
            shaper.on_activate(now)
        for constraint, key in zip(flow._constraints, flow._keys):
            state = states.get(key)
            if state is None:
                states[key] = state = _ConstraintState(key, constraint)
                if state.is_shaper:
                    # Idle until now: it starts from this sweep.
                    state._synced = synced
                    state.fabric = self
                    self._shaped[key] = state
                    constraint._entry = state
            state.members[flow] = None
            dirty.add(key)
        self._flows[flow] = None
        if not flow._keys:
            # Crosses no finite constraint: the free rate, immediately
            # (exactly what a one-flow fill with no constraints grants).
            flow.rate = DEFAULT_FREE_RATE
            self._moving[flow] = None
            if self._deferred:
                self._touched_flows[flow] = None

    def _finish(self, flow: Flow) -> None:
        now = self.env.now
        flow.finished_at = now
        flow.rate = 0.0
        flow._token = -1
        self._flows.pop(flow, None)
        self._moving.pop(flow, None)
        states = self._states
        dirty = self._dirty
        for constraint, key in zip(flow._constraints, flow._keys):
            state = states.get(key)
            if state is None:
                continue
            state.members.pop(flow, None)
            if state.members:
                dirty.add(key)
            else:
                # Last member gone: drop the registry entry (releasing
                # the identity pin) and idle-refill shapers. An idle
                # bucket is not advanced, so it is brought to now first.
                del states[key]
                dirty.discard(key)
                if state.is_shaper:
                    self._catch_up_state(state)
                    state._token = -1
                    del self._shaped[key]
                    constraint._entry = None
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
            flow._transferred = flow.size
            self._finish(flow)
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
        dirty = self._dirty
        if not dirty:
            return
        self._dirty = set()
        states = self._states
        self._allocate([flow for key in dirty if key in states
                        for flow in states[key].members])

    def _allocate(self, flows) -> None:
        """Fill every connected component that has a flow in ``flows``."""
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
        Touches every member and shaper entry first (their rates and
        consumption are about to change), then updates each member's rate
        and the moving set and refreshes the component's registry entries
        (capacity used, cached consumption sums).
        """
        states = self._states
        deferred = self._deferred
        if deferred:
            for flow in flows:
                self._touch_flow(flow)
        remaining: dict[int, float] = {}
        live: dict[int, dict[Flow, None]] = {}
        for flow in flows:
            for key in flow._keys:
                if key not in remaining:
                    state = states[key]
                    constraint = state.constraint
                    if state.is_shaper:
                        if deferred:
                            self._touch_state(state)
                        capacity = ceiling(constraint)
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
                        flow.rate = DEFAULT_FREE_RATE
                break
            for flow in list(live[best_key]):
                flow.rate = best_share
                unfrozen.discard(flow)
                for key in flow._keys:
                    remaining[key] -= best_share
                    live[key].pop(flow, None)
        moving = self._moving
        for flow in flows:
            if flow.rate > 0.0:
                moving[flow] = None
            else:
                moving.pop(flow, None)
        # Refresh the cached consumption sums (flow-creation order).
        for key in remaining:
            state = states[key]
            if state.is_shaper:
                total = 0.0
                for flow in state.members:
                    total += flow.rate
                state.consumption = total

    # -- internals: the wake -----------------------------------------------------

    def _schedule_wake(self) -> None:
        """Wake at the next completion or shaper ceiling change,
        whichever comes first."""
        now = self.env.now
        if self._deferred:
            wake_at = self._deferred_wake(now)
        else:
            wake_at = math.inf
            for flow in self._moving:
                size = flow.size
                if size is not None:
                    # Every flow still here has more than the completion
                    # slack left, so the remainder is positive.
                    upcoming = now + (size - flow._transferred) / flow.rate
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

    def _deferred_wake(self, now: float) -> float:
        """The eager walk's minimum, from the key heaps.

        Re-keys what the update touched first. A key no greater than the
        running minimum may hide a smaller term, so its entity is brought
        up to date and evaluated exactly; the first key above the minimum
        ends the search, since every later term is at least its key. An
        evaluated entity keeps its entry (catching up does not move its
        key); it leaves the heap only while a child of it may still hold
        a smaller term. The grant heap's top is its own exact term.
        """
        touched = self._touched_flows
        if touched:
            push = self._push_flow
            for flow in touched:
                push(flow, now)
            self._touched_flows = {}
        touched = self._touched_states
        if touched:
            push = self._push_state
            for state in touched:
                push(state, now)
            self._touched_states = {}
        wake_at = math.inf
        grants = self._grants
        while grants and grants[0][2]._token != grants[0][1]:
            heapq.heappop(grants)
        if grants:
            wake_at = grants[0][0]
        bounds = self._bounds
        held = []
        while bounds:
            entry = bounds[0]
            if entry[0] > wake_at:
                break
            entity = entry[2]
            if entity._token != entry[1]:
                heapq.heappop(bounds)
                continue
            if entity.__class__ is Flow:
                self._catch_up_flow(entity)
                upcoming = (now + (entity.size - entity._transferred)
                            / entity.rate)
                if upcoming < wake_at:
                    wake_at = upcoming
            else:
                self._catch_up_state(entity)
                wake_at = earliest_change((entity,), now, wake_at)
            # The next smallest key is a child of the top's.
            for child in bounds[1:3]:
                if not child[0] > wake_at:
                    break
            else:
                break
            held.append(heapq.heappop(bounds))
        for entry in held:
            heapq.heappush(bounds, entry)
        return wake_at

    def _on_wake(self, version: int) -> None:
        if version != self._wake_version:
            return  # superseded by a newer recomputation
        self._update()
