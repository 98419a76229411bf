"""Observed replays: outcome neutrality, determinism, incident content.

Uses a deliberately tiny shard-failure replay (~0.1s per run) so the
full plane — SLO engine, tail sampler, flight recorder, incident dumps
— is exercised end-to-end inside the tier-1 budget.
"""

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import scenario
from repro.obs.flight import verify_bundle
from repro.obs.scenario import obs_smoke, run_obs_replay
from repro.shard.replay import ReplayConfig, run_replay, run_replay_reference
from repro.telemetry import recording


def tiny_config(seed: int = 3) -> ReplayConfig:
    """A shard-failure replay small enough for property tests."""
    return ReplayConfig(
        tenants=2000, events=6000, window_s=120.0, seed=seed,
        shards=2, slots_per_shard=4, control_interval_s=30.0,
        fail_at=(45.0,), fault_plan="shard-failure", max_shards=2)


class TestOutcomeNeutrality:
    def test_observer_does_not_change_the_replay(self):
        config = tiny_config()
        bare = run_replay(config)
        observed = run_obs_replay(config)
        assert observed.replay.digest() == bare.digest()

    def test_neutral_under_telemetry_recording(self):
        """obs + telemetry-on still matches the bare telemetry-off run."""
        config = tiny_config()
        bare = run_replay(config)
        with recording():
            observed = run_obs_replay(config)
        assert observed.replay.digest() == bare.digest()

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=4, deadline=None)
    def test_neutral_across_seeds(self, seed):
        config = tiny_config(seed=seed)
        assert run_obs_replay(config).replay.digest() == \
            run_replay(config).digest()


class TestKernelEqualsReference:
    """The whole observed outcome — replay, SLO report, sampling,
    incident bundles — is what the event-at-a-time reference yields:
    the kernel's tagged merge hands the plane the same callback stream."""

    @staticmethod
    def reference(config):
        with mock.patch.object(scenario, "run_replay", run_replay_reference):
            return run_obs_replay(config)

    def test_kernel_preserves_the_observed_digest(self):
        config = tiny_config()
        kernel = run_obs_replay(config)
        reference = self.reference(config)
        assert kernel.to_json() == reference.to_json()
        assert kernel.digest() == reference.digest()

    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=3, deadline=None)
    def test_equivalence_across_seeds(self, seed):
        config = tiny_config(seed=seed)
        assert run_obs_replay(config).digest() == \
            self.reference(config).digest()


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=7))
    @settings(max_examples=3, deadline=None)
    def test_same_seed_byte_identical(self, seed):
        """Full observed outcome — bundles and SLO report — is stable."""
        config = tiny_config(seed=seed)
        first = run_obs_replay(config)
        second = run_obs_replay(config)
        assert first.to_json() == second.to_json()
        assert first.digest() == second.digest()

    def test_bundles_byte_identical_across_runs(self):
        config = tiny_config()
        first = run_obs_replay(config).incidents
        second = run_obs_replay(config).incidents
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_seed_changes_the_outcome(self):
        assert run_obs_replay(tiny_config(seed=0)).digest() != \
            run_obs_replay(tiny_config(seed=1)).digest()


class TestIncidentContent:
    def test_shard_failure_fires_alert_and_dumps_bundle(self):
        outcome = run_obs_replay(tiny_config())
        assert outcome.alerts_fired > 0
        assert len(outcome.incidents) > 0
        assert all(verify_bundle(bundle) for bundle in outcome.incidents)

    def test_bundle_names_the_faulted_shard(self):
        outcome = run_obs_replay(tiny_config())
        failures = [
            (shard, note)
            for bundle in outcome.incidents
            for shard, ring in bundle["rings"].items()
            for note in ring if note["kind"] == "shard-failure"]
        assert failures
        shard, note = failures[0]
        assert shard  # the ring key is the dead shard's id
        assert note["orphans"] >= 0

    def test_fault_touched_traces_retained(self):
        outcome = run_obs_replay(tiny_config())
        assert outcome.sampling["kept_by_reason"]["fault"] > 0
        assert outcome.sampling["conserved"]

    def test_slo_report_covers_fleet_and_shards(self):
        outcome = run_obs_replay(tiny_config())
        scopes = outcome.slo["scopes"]
        assert "fleet" in scopes
        assert any(scope.startswith("shard:") for scope in scopes)
        fleet = scopes["fleet"]
        assert fleet["total"] == fleet["good"] + fleet["bad"]
        assert 0.0 <= fleet["attainment"] <= 1.0

    def test_incident_bundles_are_capped(self):
        outcome = run_obs_replay(tiny_config())
        assert len(outcome.incidents) <= 8


class TestSmokeGate:
    def test_obs_smoke_passes_on_the_tiny_config(self):
        report = obs_smoke(tiny_config())
        assert all(report["checks"].values())
        assert report["alerts_fired"] > 0
        assert report["incidents"] > 0
