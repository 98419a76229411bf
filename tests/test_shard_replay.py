"""Replay tests: determinism, conservation, failure recovery, O(1) proof.

And the kernel's contract, which is absolute: for any config and any
observer, :func:`repro.shard.run_replay` produces the byte-identical
:class:`ReplayResult`, the identical observer callback sequence and —
with a recorder on — the identical telemetry counters and rebalance
spans as the event-at-a-time ``run_replay_reference``
(``tests/shard_oracle.py``). The hypothesis
property sweeps random configs — shard counts, seeds, ``fail_at``
ticks, fault plans — so the equivalence is a checked invariant, not a
pinned example.
"""

import heapq
import math
import os
import subprocess
import sys
import tracemalloc
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.shard.replay
from repro.serve.gateway import QueryGateway, QueryRequest, Tenant
from repro.serve.metrics import ServingTally
from repro.shard import ReplayConfig, run_replay
from repro.shard.replay import (
    ManualClock,
    ScanGuard,
    _advance,
    _buckets,
    _distinct,
    _next_request,
    _run_lane,
    _SlotBank,
)
from repro.shard.router import FENCED, OFFER, RETRY
from repro.telemetry import recording
from repro.telemetry.metrics import (
    _BUCKETS,
    _BUCKETS_PER_DECADE,
    _LOG_MIN,
    LatencyHistogram,
)
from tests.shard_oracle import run_replay_reference

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

    def test_reference_at_smoke_size(self):
        """The >=100k-tenant differential: the oracle, run on the smoke
        config, reaches the kernel's pinned digest with no full scan."""
        reference = run_replay_reference(ReplayConfig().smoke())
        assert reference.digest()[:16] == "07a053f41f28efcd"
        assert reference.distinct_tenants >= 100_000
        assert reference.full_scans == 0

    @given(
        tenants=st.integers(min_value=200, max_value=1_500),
        extra_events=st.integers(min_value=0, max_value=4_000),
        shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        slots=st.integers(min_value=1, max_value=16),
        fail_at=st.lists(
            st.floats(min_value=10.0, max_value=230.0), max_size=2),
        fault_plan=st.sampled_from(["", "shard-failure"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_config(self, tenants, extra_events, shards, seed, slots,
                        fail_at, fault_plan):
        """Bare and observed, the kernel is the reference. Both the
        sparse observer and the firehose see its callbacks call for call
        — fast-lane requests included, which the kernel materializes
        only for the completions it keeps."""
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
        for observer in (_RecordingObserver, _FirehoseObserver):
            kernel_obs, reference_obs = observer(), observer()
            assert run_replay(config, observer=kernel_obs).digest() \
                == kernel.digest()
            run_replay_reference(config, observer=reference_obs)
            assert kernel_obs.calls == reference_obs.calls

    def test_slices_cut_between_ticks(self, monkeypatch):
        """A slice ends at ``_FLUSH_EVERY`` events, not only at a tick.

        At test sizes every slice otherwise ends at a control tick. An
        odd flush size cuts slices mid-tick, so the kernel's per-slice
        service draws must line up with the reference's one draw of
        the whole trace, bare and observed."""
        monkeypatch.setattr(repro.shard.replay, "_FLUSH_EVERY", 997)
        reference = run_replay_reference(SMALL)
        kernel = run_replay(SMALL)
        assert kernel.digest() == reference.digest()
        assert kernel.to_dict() == reference.to_dict()
        kernel_obs, reference_obs = _FirehoseObserver(), _FirehoseObserver()
        observed = run_replay(SMALL, observer=kernel_obs)
        observed_reference = run_replay_reference(SMALL,
                                                  observer=reference_obs)
        assert observed.digest() == observed_reference.digest() \
            == reference.digest()
        assert observed.to_dict() == observed_reference.to_dict()
        assert kernel_obs.calls == reference_obs.calls

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
            metrics = recorder.metrics
            seen.append({
                "digest": result.digest(),
                "counters": {name: counter.value for name, counter
                             in sorted(metrics.counters.items())},
                "gateway_instruments": sorted(
                    name for kind in (metrics.counters, metrics.gauges,
                                      metrics.series, metrics.histograms)
                    for name in kind if name.startswith("gateway.")),
                "spans": [span.name for span in recorder.spans],
                "stale_rejections": observed and {
                    shard: gateway.stale_rejections for shard, gateway
                    in sorted(observer.router.gateways.items())},
            })
        kernel, reference = seen
        assert kernel == reference
        # The replay's factory turns gateway telemetry off, and its
        # gateways register none of DES serving's instruments.
        assert kernel["gateway_instruments"] == []
        assert result.report["shed"] > 0
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
             report["completed"], report["shed"],
             report["cost_usd"], router.pending_total()))

    def on_end(self, now, router):
        self.calls.append(("end", now, router.roll_up()))
        self.router = router


class _FirehoseObserver(_RecordingObserver):
    """No interest spec: every completion is delivered, with the fields
    of its request recorded exactly."""

    completion_interest = None

    def on_completion(self, finish, shard, request):
        self.calls.append(
            ("completion", finish, shard, request.tenant, request.seq,
             request.submitted_at, request.rescued, request.plan,
             request.priority))


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


class TestMemory:
    def test_smoke_replay_traced_peak_is_bounded(self):
        """The smoke replay holds the trace, the key-space arrays and
        one slice: about 7 MiB traced at peak. Hashing the key space in
        large chunks, drawing every service time up front or sorting a
        copy of the ids to count tenants each pushed it past 11."""
        config = ReplayConfig().smoke()
        run_replay(config)  # warm: imports and lazy module state
        tracemalloc.start()
        try:
            run_replay(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def _scalar_bucket(latency: float) -> int:
    histogram = LatencyHistogram()
    histogram.record(latency)
    return histogram.counts.index(1)


#: Every bucket edge 10 ** (-3 + k / 64) and its neighbours one and
#: two ulps away, plus the values the edge buckets clamp.
_EDGE_LATENCIES = [
    value
    for k in range(-2, _BUCKETS + 3)
    for edge in [10.0 ** (_LOG_MIN + k / _BUCKETS_PER_DECADE)]
    for value in (math.nextafter(math.nextafter(edge, 0.0), 0.0),
                  math.nextafter(edge, 0.0), edge,
                  math.nextafter(edge, math.inf),
                  math.nextafter(math.nextafter(edge, math.inf), math.inf))
] + [0.0, -0.0, 5e-324, 1e-300, 1e-9, 4.9e-4, 1e-3, 9.99e-4, 1e4, 1.5e4,
     1e7, 1e300, 1.7e308]


class TestLaneColumns:
    """The lane's arrays are the scalar dispatch's numbers, bit for bit."""

    def test_buckets_are_the_histogram_rule_at_every_edge(self):
        latencies = np.array(_EDGE_LATENCIES)
        assert _buckets(latencies).tolist() \
            == [_scalar_bucket(value) for value in _EDGE_LATENCIES]

    @given(st.lists(st.one_of(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e-3),
        st.sampled_from(_EDGE_LATENCIES)), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_buckets_are_the_histogram_rule(self, latencies):
        assert _buckets(np.array(latencies, dtype=float)).tolist() \
            == [_scalar_bucket(value) for value in latencies]


def _lane_ops(draw_ops, start: int):
    """Column tuple in :meth:`ShardRouter.route_batch`'s layout."""
    times, keys, plans, kinds = (list(column) for column in zip(*draw_ops))
    return (np.array(times, dtype=float),
            np.arange(start, start + len(times), dtype=np.int64),
            np.array(keys, dtype=np.int64), np.array(plans, dtype=float),
            None if set(kinds) == {OFFER} else np.array(kinds, dtype=np.int8))


@st.composite
def _lane_case(draw):
    """A shard mid-run: slots, limits, busy slots, a backlog, an op run."""
    slots = draw(st.integers(min_value=1, max_value=4))
    gaps = draw(st.lists(st.sampled_from(
        [0.0, 0.0, 0.0, 0.03125, 0.1, 0.25, 0.7, 2.5]), min_size=1,
        max_size=60))
    first = draw(st.sampled_from([0.0, 1.0, 1e3]))
    times, now = [], first
    for gap in gaps:
        now += gap
        times.append(now)
    plan = st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-3, 0.0625, 0.2, 0.5, 1.0, 3.0]),
        st.floats(min_value=0.0, max_value=4.0))
    kind = st.sampled_from([OFFER] * 6 + [RETRY, FENCED])
    ops = [(time, draw(st.integers(min_value=0, max_value=4)), draw(plan),
            draw(kind)) for time in times]
    return {
        "slots": slots,
        "max_pending": draw(st.integers(min_value=1, max_value=6)),
        "queue_depth": draw(st.integers(min_value=1, max_value=3)),
        "registered": draw(st.booleans()),
        "busy": draw(st.lists(st.floats(min_value=0.0, max_value=first + 3),
                              max_size=slots)),
        "backlog": draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=4), plan, st.booleans()),
            max_size=5)),
        "ops": ops,
    }


def _lane_shard(case):
    """A gateway and its slot bank in the state ``case`` names, the
    gateway as the replay's factory builds it: a default tenant,
    ``ScanGuard`` tenant dicts and no telemetry."""
    gateway = QueryGateway(
        ManualClock(), metrics=ServingTally(0.5, LatencyHistogram()),
        max_pending=case["max_pending"], shard_id="s",
        default_tenant=Tenant(name="__default__",
                              max_queue_depth=case["queue_depth"]))
    gateway.queues = ScanGuard(gateway.queues)
    gateway.tenants = ScanGuard(gateway.tenants)
    if case["registered"]:
        gateway.register(Tenant(name="t1", priority=0, max_queue_depth=2))
    bank = _SlotBank(case["slots"])
    bank.busy = list(case["busy"])
    heapq.heapify(bank.busy)
    first = case["ops"][0][0]
    for key, plan, rescued in case["backlog"]:
        gateway.adopt(QueryRequest(
            tenant=f"t{key}", plan=plan, submitted_at=first / 2,
            seq=next(gateway._seq), priority=1, rescued=rescued))
    return gateway, bank


def _completion(finish, shard, request):
    return (finish, shard, request.tenant, request.seq,
            request.submitted_at, request.plan, request.priority,
            request.rescued)


def _state(gateway, bank) -> dict:
    metrics = gateway.metrics
    return {
        "metrics": (metrics.offered, metrics.shed, metrics.completed,
                    metrics.within_slo, metrics.cost_usd,
                    metrics.queue_wait_sum, metrics.latency.total,
                    metrics.latency.counts),
        "busy": sorted(bank.busy),
        "next_seq": next(gateway._seq),
        "pending": gateway._pending,
        "backlog": [(name, [request.seq for request in gateway.queues[name]])
                    for name in gateway._backlog],
        "queues": sorted(gateway.queues),
    }


#: Interest specs: none (firehose), a sparse one (slow or ~1/4 of ids)
#: and one that keeps nothing but rescued requests.
_INTEREST = [(-math.inf, 0, 0), (0.75, 104729, 1 << 30), (math.inf, 7, 0)]


class TestLaneDifferential:
    """``_run_lane`` is the reference's per-event body, op for op.

    The scalar side is ``run_replay_reference``'s loop for one shard:
    an ``OFFER`` advances, submits and advances again when admitted, a
    ``FENCED`` op only advances, a ``RETRY`` only submits and
    advances. Hand-built columns reach what a replay rarely does: ties,
    a plan of zero or a denormal (``finish == now``), one slot, tiny
    queue and gateway limits, retries with elapsed slots, a backlog
    and idle slots at once — with every block size down to one op."""

    @given(case=_lane_case(),
           observed=st.sampled_from([None, *_INTEREST]),
           blocks=st.sampled_from([(1, 1), (1, 4), (2, 16), (64, 4096)]))
    @settings(max_examples=400, deadline=None)
    def test_lane_is_the_reference_body(self, case, observed, blocks):
        slow_s, salt, cut = observed or (-math.inf, 0, 0)
        ops = _lane_ops(case["ops"], start=100)
        gateway, bank = _lane_shard(case)
        ref_gateway, ref_bank = _lane_shard(case)

        fired = []

        def on_completion(finish, shard, request):
            fired.append(_completion(finish, shard, request))

        hook = None if observed is None else on_completion
        times, indices, keys, plans, kinds = ops
        for now, key, plan, kind in zip(
                times.tolist(), keys.tolist(), plans.tolist(),
                [OFFER] * len(times) if kinds is None else kinds.tolist()):
            if kind != RETRY:
                _advance(ref_bank, ref_gateway, now, hook, slow_s, salt, cut)
                if kind == FENCED:
                    continue
            ref_gateway.env.now = now
            if ref_gateway.submit(f"t{key}", plan) is not None:
                _advance(ref_bank, ref_gateway, now, hook, slow_s, salt, cut)

        kept = None if observed is None else []
        with mock.patch.multiple(repro.shard.replay, _BLOCK_MIN=blocks[0],
                                 _BLOCK_MAX=blocks[1]):
            _run_lane(gateway, bank, ops, kept, slow_s, salt, cut)

        assert gateway.queues.full_scans == gateway.tenants.full_scans == 0

        assert _state(gateway, bank) == _state(ref_gateway, ref_bank)
        if observed is not None:
            kept.sort(key=itemgetter(0))
            assert [_completion(*entry[1:]) for entry in kept] == fired


class TestLaneBlocks:
    def test_blocks_carry_the_smoke_replay(self, monkeypatch):
        """The speculative path is the one taken, not a slow fallback.

        On the smoke replay 107,891 of the 180,000 ops find a free slot
        and no queue on arrival (the rest queue or are shed); blocks
        must dispatch all but a sliver of them, in runs, not op by op.
        """
        applied = []
        fast_prefix = repro.shard.replay._fast_prefix

        def watched(*args):
            taken = fast_prefix(*args)
            applied.append(taken)
            return taken

        monkeypatch.setattr(repro.shard.replay, "_fast_prefix", watched)
        config = ReplayConfig().smoke()
        assert run_replay(config).digest()[:16] == "07a053f41f28efcd"
        assert sum(applied) >= 0.59 * config.events
        assert sum(applied) >= 16 * len(applied)


class TestReplayConfigLimits:
    """A shard needs a slot and admission room: the lane assumes both,
    and without a slot the reference's end-of-trace drain never ends.
    The fleet needs a shard to route to, and the control tick must
    advance, or neither replay leaves its tick loop."""

    @pytest.mark.parametrize("limit",
                             ["slots_per_shard", "max_pending_per_shard"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_a_shard_that_cannot_serve(self, limit, value):
        with pytest.raises(ValueError, match=limit):
            ReplayConfig(**{limit: value})

    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_a_fleet_without_shards(self, value):
        with pytest.raises(ValueError, match="shards"):
            ReplayConfig(shards=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_a_control_tick_that_does_not_advance(self, value):
        with pytest.raises(ValueError, match="control_interval_s"):
            ReplayConfig(control_interval_s=value)

    def test_one_slot_and_one_pending_suffice(self):
        config = ReplayConfig(slots_per_shard=1, max_pending_per_shard=1)
        assert config.slots_per_shard == config.max_pending_per_shard == 1


#: One gateway operation: submit, adopt, a round-robin pop, a pop of
#: the n-th backlogged tenant (what a scheduling policy does), a drain.
_RING_OPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 5)),
    st.tuples(st.just("adopt"), st.integers(0, 5)),
    st.tuples(st.just("next"), st.just(0)),
    st.tuples(st.just("pop"), st.integers(0, 5)),
    st.tuples(st.just("drain"), st.just(0))), max_size=80)


class TestRoundRobin:
    """The backlog ring against a plain-list round-robin model."""

    @given(ops=_RING_OPS)
    @settings(max_examples=200, deadline=None)
    def test_ring_matches_a_list_model(self, ops):
        clock = ManualClock()
        gateway = QueryGateway(
            clock, metrics=ServingTally(0.5, LatencyHistogram()),
            shard_id="s",
            default_tenant=Tenant(name="__default__", max_queue_depth=3))
        gateway.register(Tenant(name="t0", max_queue_depth=3))
        ring: list[str] = []
        queues: dict[str, list[int]] = {}

        def take(name):
            seq = queues[name].pop(0)
            if not queues[name]:
                ring.remove(name)
            return seq

        for step, (op, key) in enumerate(ops):
            clock.now = float(step)
            name = f"t{key}"
            if op in ("submit", "adopt"):
                if op == "submit":
                    request = gateway.submit(name, 1.0)
                else:
                    request = gateway.adopt(QueryRequest(
                        tenant=name, plan=1.0, submitted_at=clock.now / 2,
                        seq=next(gateway._seq), priority=1, rescued=True))
                if request is not None:
                    if not queues.get(name):
                        ring.append(name)
                    queues.setdefault(name, []).append(request.seq)
            elif op == "next":
                request = _next_request(gateway)
                if not ring:
                    assert request is None
                    continue
                head = ring[0]
                assert (request.tenant, request.seq) == (head, take(head))
                if head in ring:
                    ring.remove(head)
                    ring.append(head)
            elif op == "pop" and ring:
                head = ring[key % len(ring)]
                assert gateway.pop(head).seq == take(head)
            elif op == "drain":
                drained = gateway.drain_backlog()
                assert sorted(r.seq for r in drained) == sorted(
                    seq for name in ring for seq in queues[name])
                assert [r.fifo_key for r in drained] == sorted(
                    r.fifo_key for r in drained)
                ring.clear()
                queues.clear()
            assert gateway.backlogged() == ring
            assert gateway.total_pending == sum(map(len, queues.values()))
            for tenant in ring:
                assert [r.seq for r in gateway.queues[tenant]] \
                    == queues[tenant]


class TestDistinct:
    @given(case=st.integers(min_value=1, max_value=2_000).flatmap(
        lambda tenants: st.tuples(st.just(tenants), st.lists(
            st.integers(min_value=0, max_value=tenants - 1),
            max_size=300))))
    @example(case=(7, []))
    @example(case=(1, [0]))
    @example(case=(9, [8, 8, 8]))
    @settings(max_examples=50, deadline=None)
    def test_counts_distinct_ids_and_leaves_them_alone(self, case):
        tenants, values = case
        ids = np.array(values, dtype=np.int64)
        before = ids.copy()
        assert _distinct(ids, tenants) == len(np.unique(ids))
        assert np.array_equal(ids, before)


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


class TestImports:
    def test_the_shard_layer_loads_no_des_stack(self):
        """``repro.serve`` and ``repro.workloads`` import their modules
        on first use, so the replay's gateway and trace generator do
        not drag in the engine, the simulated cloud and ``service``;
        ``registry`` still registers the ``"query"`` kind itself."""
        code = (
            "import sys, repro.shard\n"
            "print(sorted(name for name in ('repro.core', 'repro.engine',"
            " 'repro.serve.service', 'repro.workloads.suite')"
            " if name in sys.modules))\n"
            "import repro.workloads.registry\n"
            "from repro.core import Driver\n"
            "print('query' in Driver._external_kinds)\n")
        src = Path(repro.shard.replay.__file__).parents[2]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split("\n")[:2] == ["[]", "True"]
