"""Replay tests: determinism, conservation, failure recovery, O(1) proof.

And the kernel's contract, which is absolute: for any config and any
observer, :func:`repro.shard.run_replay` produces the byte-identical
:class:`ReplayResult`, the identical observer callback sequence and —
with a recorder on — the identical telemetry counters and rebalance
spans as the event-at-a-time ``run_replay_reference``. The hypothesis
property sweeps random configs — shard counts, seeds, ``fail_at``
ticks, fault plans — so the equivalence is a checked invariant, not a
pinned example.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ReplayConfig, run_replay
from repro.shard.replay import ScanGuard, run_replay_reference
from repro.telemetry import recording

SMALL = ReplayConfig(tenants=5_000, events=8_000, window_s=240.0,
                     shards=3, slots_per_shard=2,
                     max_pending_per_shard=256, tenant_queue_depth=8,
                     control_interval_s=30.0, max_shards=6,
                     fail_at=(60.0,), fault_plan="shard-failure")


@pytest.fixture(scope="module")
def outcome():
    return run_replay(SMALL)


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self, outcome):
        again = run_replay(SMALL)
        assert outcome.digest() == again.digest()
        assert outcome.to_dict() == again.to_dict()

    def test_seed_changes_the_outcome(self, outcome):
        other = run_replay(ReplayConfig(**{
            **SMALL.__dict__, "seed": SMALL.seed + 1}))
        assert other.digest() != outcome.digest()


class TestKernelEqualsReference:
    def test_small_config(self, outcome):
        reference = run_replay_reference(SMALL)
        assert outcome.digest() == reference.digest()
        assert outcome.to_dict() == reference.to_dict()
        assert reference.full_scans == 0

    def test_smoke_digest_is_pinned(self):
        assert run_replay(ReplayConfig().smoke()).digest()[:16] \
            == "07a053f41f28efcd"

    @given(
        tenants=st.integers(min_value=200, max_value=1_500),
        extra_events=st.integers(min_value=0, max_value=4_000),
        shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        slots=st.integers(min_value=1, max_value=8),
        fail_at=st.lists(
            st.floats(min_value=10.0, max_value=230.0), max_size=2),
        fault_plan=st.sampled_from(["", "shard-failure"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_config(self, tenants, extra_events, shards, seed, slots,
                        fail_at, fault_plan):
        config = ReplayConfig(
            tenants=tenants, events=tenants + extra_events,
            window_s=240.0, seed=seed, shards=shards,
            slots_per_shard=slots, max_pending_per_shard=128,
            tenant_queue_depth=4, control_interval_s=30.0,
            max_shards=8, fail_at=tuple(fail_at),
            fault_plan=fault_plan)
        kernel = run_replay(config)
        reference = run_replay_reference(config)
        assert kernel.digest() == reference.digest()
        assert kernel.to_dict() == reference.to_dict()

    def test_observer_sees_the_reference_callback_sequence(self):
        kernel_obs, reference_obs = _RecordingObserver(), _RecordingObserver()
        kernel = run_replay(SMALL, observer=kernel_obs)
        reference = run_replay_reference(SMALL, observer=reference_obs)
        assert kernel.digest() == reference.digest()
        assert reference_obs.calls, "observer must have fired"
        assert kernel_obs.calls == reference_obs.calls

    @pytest.mark.parametrize("observed", [False, True])
    def test_telemetry_records_what_the_reference_records(self, observed):
        """Router counters, rebalance spans and the fenced gateways'
        ``stale_rejections`` come from the one router both drive."""
        seen = []
        for kernel in (run_replay, run_replay_reference):
            observer = _RecordingObserver() if observed else None
            with recording() as recorder:
                result = kernel(SMALL, observer=observer)
            seen.append({
                "digest": result.digest(),
                "counters": {name: counter.value for name, counter
                             in sorted(recorder.metrics.counters.items())},
                "spans": [span.name for span in recorder.spans],
                "stale_rejections": observed and {
                    shard: gateway.stale_rejections for shard, gateway
                    in sorted(observer.router.gateways.items())},
            })
        kernel, reference = seen
        assert kernel == reference
        assert kernel["counters"]["router.submits"] == SMALL.events
        assert kernel["counters"]["router.stale_retries"] \
            == result.stale_retries > 0
        assert any(name.startswith("shard.fail:")
                   for name in kernel["spans"])
        if observed:
            assert sum(kernel["stale_rejections"].values()) > 0


class _RecordingObserver:
    """Record every callback the replay makes, in order."""

    #: Keep slow completions plus a ~12.5% hash-sampled slice, so the
    #: merge is exercised on a sparse, irregular kept set (the
    #: all-kept case is implied: rescued requests always pass).
    completion_interest = (1.0, 104729, 1 << 29)

    def __init__(self) -> None:
        self.calls = []

    def on_completion(self, finish, shard, request):
        self.calls.append(
            ("completion", round(finish, 9), shard, request.tenant,
             request.seq, request.rescued))

    def on_shard_failure(self, now, shard, orphans):
        self.calls.append(("failure", now, shard, orphans))

    def on_fault(self, now, kind, target, detail):
        self.calls.append(("fault", now, kind, target, detail))

    def on_control_tick(self, now, router):
        report = router.roll_up()
        self.calls.append(
            ("tick", now, sorted(router.shard_metrics),
             report.completed, report.shed,
             round(report.cost_usd, 9), router.pending_total()))

    def on_end(self, now, router):
        self.calls.append(("end", now, router.roll_up().to_dict()))
        self.router = router


class TestNoGarbage:
    def test_a_finished_replay_is_freed_without_the_collector(self):
        """Fabric and router hold no reference cycle: the trace and key
        arrays of a finished run die with the call, not at the next
        gen-2 collection (back-to-back replays used to stack them)."""
        import gc
        import weakref

        class Watch(_RecordingObserver):
            def on_end(self, now, router):
                self.ref = weakref.ref(router)

        observer = Watch()
        gc.collect()
        gc.disable()
        try:
            run_replay(SMALL, observer=observer)
            assert observer.ref() is None
            run_replay_reference(SMALL, observer=observer)
            assert observer.ref() is None
        finally:
            gc.enable()


class TestConservation:
    def test_roll_up_reconciles_after_quiesce(self, outcome):
        report = outcome.report
        assert report["balanced"]
        assert report["pending"] == 0
        assert report["offered"] == report["completed"] + report["shed"] \
            + report["failed"]

    def test_trace_covers_every_tenant(self, outcome):
        assert outcome.distinct_tenants == SMALL.tenants
        assert outcome.events == SMALL.events

    def test_shard_failures_fire_and_recover(self, outcome):
        """Both failure paths (explicit fail_at + the chaos plan) kill a
        shard, and the victims' backlogs are re-homed, not dropped."""
        assert outcome.failures_injected >= 1
        assert outcome.recovered > 0
        assert outcome.report["recovered"] >= outcome.recovered

    def test_hot_path_never_walks_tenant_state(self, outcome):
        assert outcome.full_scans == 0

    def test_rebalances_are_recorded_with_stable_keys(self, outcome):
        for row in outcome.rebalances:
            assert row["action"] in ("split", "merge")
            assert row["moved"] >= 0


class TestScanGuard:
    def test_keyed_access_stays_free(self):
        guard = ScanGuard({"a": 1, "b": 2})
        assert guard["a"] == 1
        assert guard.get("c") is None
        assert "b" in guard
        assert len(guard) == 2
        assert guard.full_scans == 0

    def test_python_level_walks_are_counted(self):
        guard = ScanGuard({"a": 1, "b": 2})
        list(guard)
        list(guard.keys())
        list(guard.values())
        list(guard.items())
        assert guard.full_scans == 4

    def test_copy_counts_exactly_one_scan(self):
        """``copy`` must count one scan no matter how CPython routes
        the walk: because the guard overrides ``__iter__``, current
        CPython sends ``dict.copy`` through the generic merge path
        (which calls the counted ``keys()``); the override normalizes
        to exactly +1 either way, so a future fast path that skips
        ``keys()`` cannot silently uncount copies."""
        guard = ScanGuard({"a": 1, "b": 2})
        copied = guard.copy()
        assert copied == {"a": 1, "b": 2}
        assert type(copied) is dict
        assert guard.full_scans == 1

    def test_c_level_walk_census(self):
        """The documented blind-spot census on this CPython.

        Overriding ``__iter__`` defeats ``PyDict_Merge``'s exact-dict
        fast path, so subclass-consuming constructors and unpacking
        *are* counted (they dispatch through ``keys()``). What stays
        invisible are walks that read the key table directly at the C
        level: ``repr`` and ``==``. If a CPython release shifts any
        of these between groups, this test fails and the guard's
        contract must be re-audited.
        """
        counted = {
            "dict(sg)": lambda sg: dict(sg),
            "{**sg}": lambda sg: {**sg},
            "ScanGuard(sg)": lambda sg: ScanGuard(sg),
        }
        for label, walk in counted.items():
            guard = ScanGuard({"a": 1, "b": 2})
            assert walk(guard) == {"a": 1, "b": 2}, label
            assert guard.full_scans == 1, label
        uncounted = {
            "repr(sg)": repr,
            "sg == other": lambda sg: sg == {"a": 1, "b": 2},
        }
        for label, walk in uncounted.items():
            guard = ScanGuard({"a": 1, "b": 2})
            walk(guard)
            assert guard.full_scans == 0, label


class TestConfig:
    def test_smoke_variant_meets_the_gate_floor(self):
        smoke = ReplayConfig().smoke()
        assert smoke.tenants >= 100_000
        assert smoke.fail_at and smoke.fault_plan

    def test_smoke_variant_forwards_every_other_field(self):
        assert ReplayConfig(control_interval_s=30.0).smoke() \
            .control_interval_s == 30.0
