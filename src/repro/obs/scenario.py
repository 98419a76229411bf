"""Observed replays: the obs plane wired into the sharded fabric.

This module sits one layer above the obs core (it imports
:mod:`repro.shard`), mirroring how ``repro.chaos.scenarios`` sits above
the chaos primitives. :func:`run_obs_replay` attaches a
:class:`~repro.obs.plane.ReplayObsPlane` to a
:func:`~repro.shard.replay.run_replay` run and packages the outcome —
the untouched replay result plus the SLO report, sampling summary, and
incident bundles — as an :class:`ObsReplayResult` with its own
canonical digest.

:func:`obs_smoke` is the CI gate: it proves, on the smoke-sized
shard-failure replay, that (1) attaching the plane leaves the replay
digest byte-identical (outcome neutrality), (2) two same-seed observed
runs produce byte-identical obs digests (incident bundles included),
(3) a multi-window burn-rate alert actually fires under the fault plan
and the bundle names the faulted shard, (4) fault-touched traces were
retained by the tail sampler, and (5) the sampler's conservation
equation holds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.obs.flight import verify_bundle
from repro.obs.plane import ReplayObsPlane
from repro.shard.replay import ReplayConfig, ReplayResult, run_replay
from repro.telemetry import canonical_json, round_floats


@dataclass
class ObsReplayResult:
    """One observed replay: the run's outcome plus the plane's view."""

    replay: ReplayResult
    slo: dict
    sampling: dict
    incidents: list = field(default_factory=list)
    alerts_fired: int = 0

    def to_dict(self) -> dict:
        return {
            "replay": self.replay.to_dict(),
            "slo": self.slo,
            "sampling": self.sampling,
            "incidents": self.incidents,
            "alerts_fired": self.alerts_fired,
        }

    def to_json(self) -> str:
        return canonical_json(round_floats(self.to_dict()))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of the observed outcome."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def _run_config_dict(config: ReplayConfig) -> dict:
    """The replay config as a JSON-ready dict (embedded in bundles)."""
    return {
        "tenants": config.tenants,
        "events": config.events,
        "window_s": config.window_s,
        "seed": config.seed,
        "shards": config.shards,
        "slots_per_shard": config.slots_per_shard,
        "fault_plan": config.fault_plan,
        "fail_at": list(config.fail_at),
    }


def run_obs_replay(config: ReplayConfig | None = None) -> ObsReplayResult:
    """Run a replay with a fresh observability plane attached."""
    config = config or ReplayConfig().smoke()
    plane = ReplayObsPlane(run_config=_run_config_dict(config))
    result = run_replay(config, observer=plane)
    return ObsReplayResult(
        replay=result,
        slo=plane.slo_report(config.window_s),
        sampling=plane.sampler.summary(),
        incidents=plane.flight.incidents,
        alerts_fired=len(plane.engine.alerts))


def obs_smoke(config: ReplayConfig | None = None) -> dict:
    """The ``repro obs --smoke`` gate; raises AssertionError on failure."""
    config = config or ReplayConfig().smoke()

    bare = run_replay(config)
    first = run_obs_replay(config)
    second = run_obs_replay(config)

    checks = {
        "outcome_neutral": first.replay.digest() == bare.digest(),
        "deterministic": first.digest() == second.digest(),
        "alert_fired": first.alerts_fired > 0,
        "incident_dumped": len(first.incidents) > 0,
        "conserved": bool(first.sampling["conserved"]),
        "fault_traces_kept":
            first.sampling["kept_by_reason"]["fault"] > 0,
        "bundles_verify":
            all(verify_bundle(bundle) for bundle in first.incidents),
    }
    # Some incident bundle must name the faulted shard: the ring key
    # whose notes carry the "shard-failure" entry is the dead shard.
    checks["names_faulted_shard"] = any(
        note["kind"] == "shard-failure"
        for bundle in first.incidents
        for ring in bundle["rings"].values()
        for note in ring)

    failed = sorted(name for name, ok in checks.items() if not ok)
    if failed:
        raise AssertionError(f"obs smoke failed: {failed}")
    return {
        "checks": checks,
        "digest": first.digest(),
        "alerts_fired": first.alerts_fired,
        "incidents": len(first.incidents),
        "sampling": first.sampling,
    }
