"""The fault injector: wires a FaultPlan into the infrastructure hooks.

Injection happens through first-class hooks — ``fault_injector`` on
:class:`~repro.faas.platform.LambdaPlatform`, ``fault_hook`` on storage
services — never by monkeypatching. Every decision draws
from a named RNG stream derived from the plan, so a (seed, plan) pair
reproduces the exact same fault sequence, and attaching an injector
never perturbs any other stream in the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.faults import (
    INVOKE_KINDS,
    SHARD_KINDS,
    STORAGE_KINDS,
    FaultSpec,
)
from repro.chaos.plan import FaultPlan
from repro.sim import RandomStreams
from repro.storage.errors import SlowDown, StorageError
from repro.storage.errors import RequestTimeout as StorageRequestTimeout

#: Timeline entries kept verbatim; beyond this only counters grow.
TIMELINE_CAP = 512


@dataclass
class FaultEvent:
    """One injected fault, for the resilience report's timeline."""

    time: float
    kind: str
    target: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"t": round(self.time, 6), "kind": self.kind,
                "target": self.target, "detail": self.detail}


@dataclass
class InjectorState:
    """Mutable accounting of an installed injector."""

    events: list[FaultEvent] = field(default_factory=list)
    dropped_events: int = 0
    counts: dict[str, int] = field(default_factory=dict)


class FaultInjector:
    """Decides, per event, whether a fault from the plan strikes."""

    def __init__(self, plan: FaultPlan, rng: RandomStreams) -> None:
        self.plan = plan
        self._spec_rngs = [
            rng.stream(f"chaos.{plan.name}.{index}.{spec.kind}")
            for index, spec in enumerate(plan.specs)]
        self._spec_counts = [0] * len(plan.specs)
        self.state = InjectorState()
        #: Optional observability hook (``on_fault(now, kind, target,
        #: detail)``), called on every strike. Strictly passive: it sees
        #: the fault after the draw, so attaching one cannot change
        #: which faults fire.
        self.observer = None

    # -- installation --------------------------------------------------------

    def install(self, platform=None, services=()) -> None:
        """Attach this injector to platform/storage hooks."""
        if platform is not None:
            platform.fault_injector = self
        for service in services:
            service.fault_hook = self.on_storage

    # -- accounting ----------------------------------------------------------

    @property
    def fault_counts(self) -> dict[str, int]:
        """Injections so far, by fault kind."""
        return dict(self.state.counts)

    def timeline(self) -> list[dict]:
        """The recorded fault events as JSON-ready dicts."""
        return [event.to_dict() for event in self.state.events]

    def _fire(self, index: int, spec: FaultSpec, now: float,
              target: str, detail: str) -> None:
        self._spec_counts[index] += 1
        self.state.counts[spec.kind] = self.state.counts.get(spec.kind, 0) + 1
        if len(self.state.events) < TIMELINE_CAP:
            self.state.events.append(FaultEvent(
                time=now, kind=spec.kind, target=target, detail=detail))
        else:
            self.state.dropped_events += 1
        if self.observer is not None:
            self.observer.on_fault(now, spec.kind, target, detail)

    def _eligible(self, index: int, spec: FaultSpec, now: float) -> bool:
        if not spec.in_window(now):
            return False
        if spec.max_events is not None \
                and self._spec_counts[index] >= spec.max_events:
            return False
        return True

    def _draw(self, index: int, spec: FaultSpec) -> bool:
        if spec.probability >= 1.0:
            return True
        return float(self._spec_rngs[index].random()) < spec.probability

    # -- hooks ---------------------------------------------------------------

    def on_invoke(self, function: str, payload, now: float):
        """Platform hook: fault striking this invocation, or ``None``.

        Called by :meth:`LambdaPlatform._invoke` before admission. The
        first matching spec (plan order) wins.
        """
        for index, spec in enumerate(self.plan.specs):
            if spec.kind not in INVOKE_KINDS:
                continue
            if spec.function is not None and spec.function != function:
                continue
            if spec.pipeline is not None:
                pipeline = (payload or {}).get("pipeline")
                if pipeline is None or pipeline.id != spec.pipeline:
                    continue
            if not self._eligible(index, spec, now):
                continue
            if not self._draw(index, spec):
                continue
            fragment = (payload or {}).get("fragment")
            target = function if fragment is None \
                else f"{function}/frag-{fragment}"
            attempt = (payload or {}).get("attempt", 0)
            detail = f"attempt={attempt}" if attempt else ""
            self._fire(index, spec, now, target, detail)
            return spec
        return None

    def on_place(self, function: str, now: float):
        """Platform hook: NIC degradation factor for a new sandbox."""
        for index, spec in enumerate(self.plan.specs):
            if spec.kind != "network_degrade":
                continue
            if spec.function is not None and spec.function != function:
                continue
            if not self._eligible(index, spec, now):
                continue
            if not self._draw(index, spec):
                continue
            self._fire(index, spec, now, f"{function}/sandbox",
                       f"factor={spec.factor}")
            return spec.factor
        return None

    def on_storage(self, op: str, key: str, now: float):
        """Storage hook: error to inject for this request, or ``None``."""
        for index, spec in enumerate(self.plan.specs):
            if spec.kind not in STORAGE_KINDS:
                continue
            if spec.operation is not None and spec.operation != op:
                continue
            if spec.key_prefix and not key.startswith(spec.key_prefix):
                continue
            if not self._eligible(index, spec, now):
                continue
            if not self._draw(index, spec):
                continue
            self._fire(index, spec, now, f"{op} {key}", "")
            return self._storage_error(spec, op, key)
        return None

    def on_shard(self, shard: str, now: float) -> bool:
        """Fleet hook: whether this gateway shard dies now.

        Polled by the sharded-serving control loop once per shard per
        control interval. A strike means the shard is removed from the
        fleet; the partition directory reassigns its ranges and the
        router re-homes its backlog — the conservation check in the
        fleet roll-up proves no admitted query was lost.
        """
        for index, spec in enumerate(self.plan.specs):
            if spec.kind not in SHARD_KINDS:
                continue
            if not self._eligible(index, spec, now):
                continue
            if not self._draw(index, spec):
                continue
            self._fire(index, spec, now, shard, "shard removed")
            return True
        return False

    @staticmethod
    def _storage_error(spec: FaultSpec, op: str, key: str) -> StorageError:
        if spec.kind == "storage_slowdown":
            return SlowDown(f"injected SlowDown on {op} {key!r}")
        return StorageRequestTimeout(f"injected timeout on {op} {key!r}")
