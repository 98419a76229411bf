"""Fault plans: named, reproducible failure regimes.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultSpec` entries.
The built-in plans cover the failure modes the paper's infrastructure
analysis observes (Sections 4-5); ``demo-outage`` is the acceptance
scenario — a regime that kills the retry-free engine outright but which
the recovery layer survives with measurable retries and hedge wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.faults import FaultSpec


@dataclass(frozen=True)
class FaultPlan:
    """A named set of fault specs applied together."""

    name: str
    specs: tuple[FaultSpec, ...]
    description: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "description": self.description,
                "specs": [spec.to_dict() for spec in self.specs]}


FAULT_PLANS: dict[str, FaultPlan] = {
    "worker-crash": FaultPlan(
        name="worker-crash",
        description="Sporadic worker invocation failures (commodity FaaS "
                    "unreliability).",
        specs=(
            FaultSpec(kind="worker_crash", function="skyrise-worker",
                      probability=0.25, delay_s=0.05, max_events=6),
        )),
    "sandbox-loss": FaultPlan(
        name="sandbox-loss",
        description="Sandboxes reclaimed mid-flight while handlers run.",
        specs=(
            FaultSpec(kind="sandbox_loss", function="skyrise-worker",
                      probability=0.2, after_s=0.4, max_events=4),
        )),
    "slowdown-storm": FaultPlan(
        name="slowdown-storm",
        description="S3 503 SlowDown storm during prefix scaling "
                    "(Section 4.4).",
        specs=(
            FaultSpec(kind="storage_slowdown", operation="get",
                      probability=0.5, start_s=0.0, end_s=20.0,
                      max_events=64),
        )),
    "stragglers": FaultPlan(
        name="stragglers",
        description="Latency stragglers: delayed handler starts plus "
                    "degraded sandbox NICs (Section 5.2).",
        specs=(
            FaultSpec(kind="invoke_straggler", function="skyrise-worker",
                      probability=0.15, delay_s=6.0, max_events=3),
            FaultSpec(kind="network_degrade", function="skyrise-worker",
                      probability=0.1, factor=0.25, max_events=2),
        )),
    "throttle-storm": FaultPlan(
        name="throttle-storm",
        description="Invoke admission pushback plus worker crashes: sheds "
                    "queued traffic while crashed fragments recover via "
                    "retry.",
        specs=(
            FaultSpec(kind="invoke_throttle", function="skyrise-worker",
                      probability=0.5, delay_s=2.0, start_s=0.0,
                      end_s=240.0),
            FaultSpec(kind="worker_crash", function="skyrise-worker",
                      probability=0.08, delay_s=0.05, start_s=0.0,
                      end_s=240.0),
        )),
    "demo-outage": FaultPlan(
        name="demo-outage",
        description="Acceptance scenario: crashes force retries, one "
                    "pathological straggler forces a hedge win, and a "
                    "short SlowDown burst exercises storage backoff.",
        specs=(
            FaultSpec(kind="invoke_straggler", function="skyrise-worker",
                      probability=1.0, delay_s=25.0, max_events=1),
            FaultSpec(kind="worker_crash", function="skyrise-worker",
                      probability=0.3, delay_s=0.05, max_events=4),
            FaultSpec(kind="storage_slowdown", operation="get",
                      probability=0.3, start_s=0.0, end_s=5.0,
                      max_events=16),
        )),
    "futures-chaos": FaultPlan(
        name="futures-chaos",
        description="Chaos regime for futures jobs: sporadic worker "
                    "crashes the invoker retries, plus a SlowDown window "
                    "on partitioned-object reads.",
        specs=(
            FaultSpec(kind="worker_crash", function="futures-worker",
                      probability=0.2, delay_s=0.05, max_events=8),
            FaultSpec(kind="storage_slowdown", operation="get",
                      probability=0.3, start_s=0.0, end_s=10.0,
                      max_events=32),
        )),
    "shard-failure": FaultPlan(
        name="shard-failure",
        description="Serving-fleet shard loss: one gateway shard dies "
                    "mid-run; the directory reassigns its ranges and "
                    "every admitted query must be completed, shed with "
                    "a metric, or recovered.",
        specs=(
            FaultSpec(kind="shard_failure", probability=0.5,
                      start_s=60.0, max_events=1),
        )),
    "smoke": FaultPlan(
        name="smoke",
        description="Short deterministic plan for the CI smoke job.",
        specs=(
            FaultSpec(kind="worker_crash", function="skyrise-worker",
                      probability=0.5, delay_s=0.05, max_events=2),
            FaultSpec(kind="invoke_straggler", function="skyrise-worker",
                      probability=0.5, delay_s=10.0, max_events=1),
            FaultSpec(kind="storage_slowdown", operation="get",
                      probability=0.25, start_s=0.0, end_s=10.0,
                      max_events=8),
        )),
}


def get_plan(name: str) -> FaultPlan:
    """Look up a built-in plan by name."""
    try:
        return FAULT_PLANS[name]
    except KeyError:
        raise KeyError(f"unknown fault plan {name!r}; known: "
                       f"{sorted(FAULT_PLANS)}") from None
