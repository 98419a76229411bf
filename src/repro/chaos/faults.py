"""Fault taxonomy for the chaos subsystem.

The fault kinds mirror the transient failures the paper observes in the
wild: S3 503 ``SlowDown`` under prefix scaling (Section 4.4), Lambda
admission throttling and cold-start stragglers (Section 5.2), and the
general sandbox unreliability of commodity FaaS platforms. Each kind is
a typed :class:`FaultSpec` with a schedule — probabilistic per event,
time-windowed, optionally targeted at one function or pipeline — so a
:class:`~repro.chaos.plan.FaultPlan` can reproduce a failure regime
deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

#: Valid values of :attr:`FaultSpec.kind`.
FAULT_KINDS = (
    "worker_crash",      # invocation fails before the handler runs
    "sandbox_loss",      # sandbox dies mid-flight, after ``after_s``
    "invoke_straggler",  # handler start delayed by ``delay_s``
    "invoke_throttle",   # frontend pushback: ``delay_s`` before admission
    "storage_slowdown",  # S3-style 503 SlowDown on get/put
    "storage_timeout",   # request lost; client sees a timeout
    "network_degrade",   # sandbox NIC shaped down by ``factor``
    "shard_failure",     # a serving-fleet gateway shard dies outright
)

#: Fault kinds decided per function invocation.
INVOKE_KINDS = ("worker_crash", "sandbox_loss", "invoke_straggler",
                "invoke_throttle")
#: Fault kinds decided per storage request.
STORAGE_KINDS = ("storage_slowdown", "storage_timeout")
#: Fault kinds decided per serving-fleet shard at the control cadence.
SHARD_KINDS = ("shard_failure",)


class InjectedFault(Exception):
    """Base class for errors raised by injected faults.

    Injected faults model *transient* infrastructure failures, so the
    recovery layer treats them as retryable — unlike application errors
    (missing table, oversized item), which propagate unchanged.
    """

    retryable = True


class WorkerCrash(InjectedFault):
    """The invocation failed before the handler produced a result."""


class SandboxLost(InjectedFault):
    """The sandbox disappeared while the handler was running."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault source inside a :class:`FaultPlan`.

    ``probability`` applies per matching event (invocation or storage
    request) inside the ``[start_s, end_s)`` window; ``max_events``
    bounds the total number of injections from this spec.
    """

    kind: str
    probability: float = 1.0
    #: Target function name (invoke kinds); ``None`` matches any.
    function: Optional[str] = None
    #: Target pipeline id (invoke kinds); ``None`` matches any.
    pipeline: Optional[str] = None
    #: Target operation for storage kinds: "get", "put", or ``None``.
    operation: Optional[str] = None
    #: Key prefix filter for storage kinds ("" matches every key).
    key_prefix: str = ""
    #: Active window in simulated seconds.
    start_s: float = 0.0
    end_s: float = float("inf")
    #: Added latency (invoke_straggler / invoke_throttle / worker_crash).
    delay_s: float = 0.0
    #: Handler lifetime before a sandbox_loss strikes.
    after_s: float = 0.5
    #: Rate multiplier for network_degrade (0 < factor <= 1).
    factor: float = 0.5
    #: Cap on injections from this spec (None = unbounded).
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.kind == "network_degrade" and not 0.0 < self.factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        if self.end_s < self.start_s:
            raise ValueError("end_s must be >= start_s")

    def in_window(self, now: float) -> bool:
        """Whether the spec is active at simulated time ``now``."""
        return self.start_s <= now < self.end_s

    def make_error(self) -> InjectedFault:
        """Instantiate the error this fault surfaces (invoke kinds)."""
        if self.kind == "worker_crash":
            return WorkerCrash(f"injected worker crash "
                               f"(function={self.function or 'any'})")
        if self.kind == "sandbox_loss":
            return SandboxLost(f"sandbox lost after {self.after_s:.3f}s")
        raise ValueError(f"{self.kind!r} does not raise an invoke error")

    def to_dict(self) -> dict:
        """JSON-serializable spec snapshot for the resilience report."""
        out = asdict(self)
        if out["end_s"] == float("inf"):
            out["end_s"] = None
        if out["max_events"] is None:
            del out["max_events"]
        return out
