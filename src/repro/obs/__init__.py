"""Observability and diagnostics plane over :mod:`repro.telemetry`.

Four subsystems, all deterministic and all outcome-neutral (attaching
them to a run never changes what the run computes):

* :mod:`repro.obs.slo` — the serving SLO, sliding-window error-budget
  accounting, Google-SRE-style multi-window burn-rate alerts;
* :mod:`repro.obs.sampler` — tail-based trace sampling (keep
  fault-touched and slow traces, a seeded baseline of the rest);
* :mod:`repro.obs.flight` — bounded flight-recorder rings and
  canonical-JSON incident bundles;
* :mod:`repro.obs.profiler` — span trees folded into per-stage
  resource/cost profiles (the optimizer feed) and per-worker
  timelines (Gantt, skew, stragglers).

:mod:`repro.obs.plane` packages the first three as a replay observer;
:mod:`repro.obs.scenario` (a layer up — it imports the sharded
fabric) runs observed replays and the ``repro obs --smoke`` gate. See
``docs/observability.md``.
"""

from repro.obs.flight import (
    DEFAULT_RING_CAPACITY,
    INCIDENT_SCHEMA,
    FlightRecorder,
    bundle_digest,
    verify_bundle,
)
from repro.obs.plane import ReplayObsPlane
from repro.obs.profiler import PROFILE_SCHEMA, profile_recorder, profile_spans
from repro.obs.sampler import TailSampler
from repro.obs.slo import BURN_RULES, Alert, BurnRule, SLOEngine, SlidingWindow

__all__ = [
    "Alert",
    "BURN_RULES",
    "BurnRule",
    "DEFAULT_RING_CAPACITY",
    "FlightRecorder",
    "INCIDENT_SCHEMA",
    "PROFILE_SCHEMA",
    "ReplayObsPlane",
    "SLOEngine",
    "SlidingWindow",
    "TailSampler",
    "bundle_digest",
    "profile_recorder",
    "profile_spans",
    "verify_bundle",
]
