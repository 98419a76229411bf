"""Cross-cutting property-based tests on core invariants."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.engine.shuffle import _hash_partition
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema
from repro.network import Fabric
from repro.network import fabric as fabric_module
from repro.network.shaper import (
    _TIME_TOLERANCE,
    LAMBDA_BASELINE_RATE,
    LAMBDA_BUCKET_CAPACITY,
    LAMBDA_GRANT_INTERVAL,
    LAMBDA_ONE_OFF_BUDGET,
    TokenBucketShaper,
    catch_up,
    ceiling,
    earliest_change,
    lambda_shaper,
    replay,
)
from repro.pricing import STORAGE_PRICES
from repro.pricing.breakeven import (
    CapacityTier,
    break_even_interval_capacity,
    break_even_interval_requests,
)
from repro.sim import Environment
from repro.storage.latency import LatencyModel
from repro.telemetry import recording


class TestFabricConservation:
    @given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e4),
                          min_size=1, max_size=10),
           capacity=st.floats(min_value=10.0, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_link_never_exceeded_and_all_bytes_delivered(self, sizes,
                                                         capacity):
        """Flows through a shared link finish with exact byte counts and
        never before total_bytes / capacity."""
        env = Environment()
        fabric = Fabric(env)
        link = fabric.link(capacity=capacity)
        flows = [fabric.transfer(fabric.endpoint(f"s{i}"),
                                 fabric.endpoint(f"d{i}"),
                                 size=size, links=(link,))
                 for i, size in enumerate(sizes)]
        env.run()
        total = sum(sizes)
        for flow, size in zip(flows, sizes):
            assert flow.transferred == pytest.approx(size, rel=1e-6)
            assert flow.finished_at is not None
        makespan = max(flow.finished_at for flow in flows)
        # The link cannot move bytes faster than its capacity.
        assert makespan >= total / capacity * (1 - 1e-9)

    @given(capacity=st.floats(min_value=10.0, max_value=1e5),
           burst=st.floats(min_value=10.0, max_value=1e4),
           refill=st.floats(min_value=0.1, max_value=100.0),
           horizon=st.floats(min_value=0.5, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_shaped_flow_never_exceeds_token_budget(self, capacity, burst,
                                                    refill, horizon):
        """Transferred bytes never exceed initial tokens + refill."""
        env = Environment()
        fabric = Fabric(env)
        shaper = TokenBucketShaper(capacity=capacity, burst_rate=burst,
                                   refill_rate=refill, mode="continuous",
                                   initial_level=capacity)
        dst = fabric.endpoint("fn", ingress=shaper)
        flow = fabric.open_flow(fabric.endpoint("src"), dst)
        env.run(until=horizon)
        fabric.sync_now()
        budget = capacity + refill * horizon
        assert flow.transferred <= budget * (1 + 1e-6)


class TestShufflePartitioning:
    @given(keys=st.lists(st.integers(min_value=-10**9, max_value=10**9),
                         min_size=1, max_size=300),
           partitions=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_partitioning_is_total_stable_and_consistent(self, keys,
                                                         partitions):
        array = np.array(keys, dtype=np.int64)
        first = _hash_partition(array, partitions)
        second = _hash_partition(array, partitions)
        np.testing.assert_array_equal(first, second)
        assert ((first >= 0) & (first < partitions)).all()
        # Equal keys always colocate.
        by_key = {}
        for key, partition in zip(keys, first):
            if key in by_key:
                assert by_key[key] == partition
            by_key[key] = partition


class TestLatencyModelProperties:
    @given(median=st.floats(min_value=1e-4, max_value=1.0),
           spread=st.floats(min_value=1.0, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_sampled_median_matches_parameter(self, median, spread):
        model = LatencyModel(median=median, p95=median * spread,
                             ceiling=1e6)
        rng = np.random.default_rng(0)
        samples = model.sample(rng, size=20_000)
        assert np.median(samples) == pytest.approx(median, rel=0.1)
        assert (samples > 0).all()

    @given(median=st.floats(min_value=1e-3, max_value=0.1))
    @settings(max_examples=20, deadline=None)
    def test_ceiling_respected(self, median):
        model = LatencyModel(median=median, p95=median * 3,
                             tail_probability=0.05, tail_alpha=1.01,
                             ceiling=median * 10)
        rng = np.random.default_rng(1)
        samples = model.sample(rng, size=5_000)
        assert samples.max() <= median * 10 + 1e-12


class TestBreakEvenProperties:
    @given(size=st.floats(min_value=1024, max_value=64 * 1024**2))
    @settings(max_examples=30, deadline=None)
    def test_capacity_bei_decreases_with_access_size(self, size):
        """Larger accesses never lengthen the capacity-priced interval."""
        tier = CapacityTier(name="d", rent_per_hour=0.2, iops=100_000,
                            bandwidth=2 * units.GiB)
        small = break_even_interval_capacity(size, tier, 1e-6)
        larger = break_even_interval_capacity(size * 2, tier, 1e-6)
        assert larger <= small * (1 + 1e-9)

    @given(size=st.floats(min_value=1024, max_value=64 * 1024**2),
           ram=st.floats(min_value=1e-9, max_value=1e-3))
    @settings(max_examples=30, deadline=None)
    def test_request_bei_positive_and_scales_with_ram_price(self, size, ram):
        bei = break_even_interval_requests(
            size, STORAGE_PRICES["s3-standard"], ram)
        cheaper_ram = break_even_interval_requests(
            size, STORAGE_PRICES["s3-standard"], ram / 2)
        assert bei > 0
        # Cheaper RAM keeps pages cached longer: interval grows.
        assert cheaper_ram == pytest.approx(2 * bei, rel=1e-9)


class TestChaosDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=3, deadline=None)
    def test_same_seed_and_plan_give_byte_identical_reports(self, seed):
        """The resilience report's determinism contract is byte-exact:
        the whole run — arrivals, injections, retries, hedges, billing —
        replays identically from (seed, plan)."""
        from repro.chaos.runner import run_chaos_suite

        first = run_chaos_suite("smoke", queries=("tpch-q6",), repeats=1,
                                seed=seed, baseline=False)
        second = run_chaos_suite("smoke", queries=("tpch-q6",), repeats=1,
                                 seed=seed, baseline=False)
        assert first.to_json() == second.to_json()


class TestBatchInvariants:
    @given(n=st.integers(min_value=0, max_value=200),
           take_seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_take_preserves_row_content(self, n, take_seed):
        rng = np.random.default_rng(take_seed)
        batch = RecordBatch(
            Schema([Field("a", DataType.INT64)]),
            {"a": np.arange(n, dtype=np.int64)})
        mask = rng.random(n) < 0.5
        subset = batch.take(mask)
        np.testing.assert_array_equal(subset.column("a"),
                                      np.arange(n)[mask])
        assert subset.logical_bytes <= batch.logical_bytes + 1e-9

    @given(pieces=st.lists(st.integers(min_value=0, max_value=50),
                           min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_concat_preserves_order_and_counts(self, pieces):
        schema = Schema([Field("a", DataType.INT64)])
        batches = []
        offset = 0
        for count in pieces:
            batches.append(RecordBatch(
                schema,
                {"a": np.arange(offset, offset + count, dtype=np.int64)}))
            offset += count
        merged = RecordBatch.concat(batches)
        np.testing.assert_array_equal(merged.column("a"),
                                      np.arange(offset))


def _lambda_style_shaper():
    """A scaled-down Lambda bucket: one-off budget, 100 ms grants, idle
    refill — small enough that test-sized flows run it dry."""
    return TokenBucketShaper(
        capacity=600.0, burst_rate=1e3, refill_rate=200.0,
        mode="quantized", one_off_budget=400.0, idle_refill_level=300.0,
        grant_interval=0.1, initial_level=600.0)


def _continuous_shaper():
    return TokenBucketShaper(capacity=2e3, burst_rate=1e3,
                             refill_rate=200.0, mode="continuous")


def _stalling_shaper():
    """A Lambda bucket that test-sized flows drain within a second, then
    hold at zero between 100 ms grants of 20 bytes."""
    return TokenBucketShaper(
        capacity=150.0, burst_rate=1e3, refill_rate=200.0,
        mode="quantized", one_off_budget=100.0, idle_refill_level=75.0,
        grant_interval=0.1, initial_level=150.0)


_SHAPER_KINDS = {"none": lambda: None, "continuous": _continuous_shaper,
                 "lambda": _lambda_style_shaper, "stalling": _stalling_shaper}


def _fabric_scenario(data, kinds, max_size=5e3):
    """Draw links, a few shared endpoints shaped by ``kinds``, flows
    (bounded, or open and stopped later), a mid-run degradation and
    probes that read every flow and shaper, after a ``sync_now`` or not."""
    n_links = data.draw(st.integers(min_value=1, max_value=4),
                        label="n_links")
    caps = data.draw(st.lists(
        st.floats(min_value=10.0, max_value=1e4),
        min_size=n_links, max_size=n_links), label="capacities")
    # A few shared endpoints, so shapers see several flows at once,
    # go idle between them and are reactivated (idle refill).
    shaping = data.draw(st.lists(st.sampled_from(kinds),
                                 min_size=2, max_size=5),
                        label="endpoint_shaping")
    n_flows = data.draw(st.integers(min_value=1, max_value=12),
                        label="n_flows")
    pick = st.integers(min_value=0, max_value=len(shaping) - 1)
    specs = []
    # Starts that coincide make zero-elapsed sweeps; past the first
    # grant time, they find a fresh bucket's grant overdue.
    starts = st.one_of(st.sampled_from((0.0, 0.25, 1.0, 2.5)),
                       st.floats(min_value=0.0, max_value=5.0))
    for i in range(n_flows):
        start = data.draw(starts, label=f"start_{i}")
        size = data.draw(st.floats(min_value=1.0, max_value=max_size),
                         label=f"size_{i}")
        src = data.draw(pick, label=f"src_{i}")
        dst = data.draw(pick, label=f"dst_{i}")
        link_ids = data.draw(st.lists(
            st.integers(min_value=0, max_value=n_links - 1),
            min_size=0, max_size=n_links, unique=True),
            label=f"links_{i}")
        # Open-ended flows are stopped explicitly, covering the
        # departure path; bounded flows depart by finishing.
        stop_after = data.draw(
            st.one_of(st.none(),
                      st.floats(min_value=0.1, max_value=3.0)),
            label=f"stop_{i}")
        specs.append((start, size, src, dst, tuple(link_ids), stop_after))
    # A mid-run chaos degradation: only the drift check sees it.
    degrade = (data.draw(st.floats(min_value=0.0, max_value=6.0),
                         label="degrade_at"),
               data.draw(pick, label="degrade_on"),
               data.draw(st.floats(min_value=0.1, max_value=1.0),
                         label="degrade_factor"))
    probes = data.draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=8.0), st.booleans()),
        max_size=6), label="probes")
    return caps, shaping, specs, degrade, probes


class _PopLog:
    """Kernel monitor: the clock at every event the kernel pops."""

    def __init__(self):
        self.times = []

    def on_event(self, now, queue_depth):
        self.times.append(now)

    def on_process(self, name):
        pass


def _run_fabric_scenario(scenario, force_full=False):
    """Run a drawn scenario to the end; returns the clock at every pop,
    what the probes read, every flow's outcome, every shaper's bucket
    and the kernel's event count. With ``force_full`` every update
    reallocates every active flow from scratch instead of only the
    components a change can reach."""
    caps, shaping, specs, (degrade_at, degrade_on, factor), probes = scenario
    env = Environment()
    pops = _PopLog()
    env.set_monitor(pops)
    fabric = Fabric(env)
    if force_full:
        def recompute_all():
            fabric._dirty = set()
            fabric._allocate(fabric._flows)
        fabric._recompute_dirty = recompute_all
    links = [fabric.link(capacity=cap, name=f"l{j}")
             for j, cap in enumerate(caps)]
    endpoints = [fabric.endpoint(f"e{j}", ingress=_SHAPER_KINDS[kind](),
                                 egress=_SHAPER_KINDS[kind]())
                 for j, kind in enumerate(shaping)]
    shapers = [shaper for endpoint in endpoints
               for shaper in (endpoint.ingress, endpoint.egress)
               if shaper is not None]
    flows = []
    readings = []

    def starter(start, size, src, dst, link_ids, stop_after):
        yield env.timeout(start)
        chosen = tuple(links[j] for j in link_ids)
        if stop_after is None:
            flows.append(fabric.transfer(
                endpoints[src], endpoints[dst], size=size, links=chosen))
            return
        flow = fabric.open_flow(endpoints[src], endpoints[dst],
                                links=chosen)
        flows.append(flow)
        yield env.timeout(stop_after)
        fabric.stop_flow(flow)

    def degrader():
        yield env.timeout(degrade_at)
        for shaper in (endpoints[degrade_on].ingress,
                       endpoints[degrade_on].egress):
            if shaper is not None:
                shaper.degrade(factor)

    def prober(at, sync):
        yield env.timeout(at)
        if sync:
            fabric.sync_now()
        readings.append(([flow.transferred for flow in flows],
                         [shaper.state() for shaper in shapers]))

    for i, spec in enumerate(specs):
        env.process(starter(*spec), name=f"flow-{i}")
    env.process(degrader(), name="degrade")
    for i, (at, sync) in enumerate(probes):
        env.process(prober(at, sync), name=f"probe-{i}")
    env.run()
    return (pops.times, readings,
            [(f.id, f.transferred, f.finished_at) for f in flows],
            [(s.state(), s._next_grant_at) for s in shapers],
            env.scheduled_events)


class TestFabricIncrementalEquivalence:
    """The incremental max-min allocator must be bit-for-bit identical
    to the from-scratch reference under random arrival/departure mixes.
    """

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_incremental_matches_full_recompute(self, data):
        scenario = _fabric_scenario(data, ["none", "continuous", "lambda"])
        assert (_run_fabric_scenario(scenario, force_full=False)
                == _run_fabric_scenario(scenario, force_full=True))


@contextmanager
def _deferring_at(width):
    """Fabrics defer time for good once a sweep finds ``width`` moving
    flows while inside; test-sized fabrics otherwise only walk."""
    saved = fabric_module._DEFER_AT
    fabric_module._DEFER_AT = width
    try:
        yield
    finally:
        fabric_module._DEFER_AT = saved


class TestFabricDeferral:
    """A fabric that brings flows and buckets to ``now`` only when an
    update touches them gives exactly what walking every flow and bucket
    at every update gives.

    With a recorder on, buckets sample every advance and the fabric
    makes that walk, in historical order: that run is the oracle.
    """

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_deferred_run_matches_the_recorded_walk(self, data):
        scenario = _fabric_scenario(
            data, ["none", "continuous", "lambda", "stalling"],
            max_size=2e3)
        # Always deferring, or walking until the width first reaches
        # the threshold.
        width = data.draw(st.sampled_from([0, 2, 4]), label="defer_at")
        with _deferring_at(width):
            deferred = _run_fabric_scenario(scenario)
        with recording():
            walked = _run_fabric_scenario(scenario)
        assert deferred == walked

    @staticmethod
    def drain_a_lambda_budget(spy=None, reads=None):
        """A Lambda flow of its 300 MiB budget plus six grants, beside a
        stream of tiny unrelated transfers that keep the fabric sweeping
        between grants. Then, under a second later (no idle refill): an
        open flow stopped while its bucket is drained, and a transfer
        that starts after the next grant fell due. ``reads`` collects the
        first flow's bytes and the bucket's state, read without a
        ``sync_now`` after every tick."""
        env = Environment()
        fabric = Fabric(env)
        shaper = lambda_shaper("in")
        fn = fabric.endpoint("fn", ingress=shaper)
        s3 = fabric.endpoint("s3")
        link = fabric.link(capacity=1e3)
        grant = LAMBDA_BASELINE_RATE * LAMBDA_GRANT_INTERVAL
        flows = [fabric.transfer(
            s3, fn, size=LAMBDA_ONE_OFF_BUDGET + LAMBDA_BUCKET_CAPACITY
            + 6 * grant)]

        def ticker():
            while flows[-1].active or len(flows) < 3:
                yield env.timeout(0.013)
                fabric.transfer(fabric.endpoint("a"), fabric.endpoint("b"),
                                size=1.0, links=(link,))
                if reads is not None:
                    reads.append((flows[0].transferred, shaper.state()))

        def restart():
            yield flows[0].done
            yield env.timeout(0.05)
            flows.append(fabric.open_flow(s3, fn))
            yield env.timeout(0.02)
            fabric.stop_flow(flows[1])
            yield env.timeout(0.2)
            flows.append(fabric.transfer(s3, fn, size=4 * grant))

        if spy is not None:
            spy(fabric, shaper)
        env.process(ticker(), name="ticker")
        env.process(restart(), name="restart")
        env.run()
        return ([(f.transferred, f.finished_at) for f in flows],
                (shaper.state(), shaper._next_grant_at),
                env.scheduled_events)

    def test_a_drained_lambda_bucket_is_deferred_between_grants(self):
        sweeps = []

        def spy(fabric, shaper):
            sweep = fabric._sweep

            def spied():
                entry = shaper._entry
                grant_at = shaper._next_grant_at
                found = sweep()
                if entry is not None and entry is shaper._entry:
                    end = fabric._log_base + len(fabric._elapsed)
                    due = not grant_at > fabric.env.now + 1e-9
                    sweeps.append((entry._synced == end, due))
                return found

            fabric._sweep = spied

        with _deferring_at(0):
            deferred_run = self.drain_a_lambda_budget(spy)
        with recording():
            recorded_run = self.drain_a_lambda_budget()
        assert deferred_run == recorded_run
        # Brought to now at every sweep its grant is due in, and left
        # behind at most of the others.
        assert any(due for _, due in sweeps)
        assert all(synced for synced, due in sweeps if due)
        behind = sum(not synced for synced, _ in sweeps)
        assert behind > len(sweeps) / 2

    def test_reads_without_sync_give_the_last_sweep(self):
        deferred_reads, recorded_reads = [], []
        with _deferring_at(0):
            deferred_run = self.drain_a_lambda_budget(reads=deferred_reads)
        with recording():
            recorded_run = self.drain_a_lambda_budget(reads=recorded_reads)
        assert deferred_run == recorded_run
        assert len(deferred_reads) > 50
        assert deferred_reads == recorded_reads


class TestShaperReplay:
    """There is one copy of the bucket arithmetic, :func:`replay`, in two
    call shapes: the walk's (one sweep over all of its loads) and a
    deferred bucket's catch-up (all of its sweeps over one load). The two
    reach the same floats, loads in one call do not interact, and the
    walk reports exactly the ceilings that moved."""

    @given(quantized=st.booleans(),
           one_off=st.floats(min_value=0.0, max_value=500.0),
           refill=st.floats(min_value=0.0, max_value=400.0),
           groups=st.lists(
               st.tuples(st.floats(min_value=0.0, max_value=1.0),
                         st.lists(st.floats(min_value=0.0, max_value=0.7),
                                  min_size=1, max_size=5)),
               min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_walk_and_catch_up_shapes_agree(self, quantized, one_off,
                                            refill, groups):
        from repro.network.fabric import _ConstraintState

        def make():
            # A bystander beside the bucket under test.
            return [_ConstraintState(0, _lambda_style_shaper()),
                    _ConstraintState(1, TokenBucketShaper(
                        capacity=600.0, burst_rate=1e3, refill_rate=refill,
                        mode="quantized" if quantized else "continuous",
                        one_off_budget=one_off, grant_interval=0.1))]

        walked, replayed, caught_up = make(), make(), make()
        now = 0.0
        for share, steps in groups:
            # The fabric never lets flows draw more than the ceiling.
            for loads in (walked, replayed, caught_up):
                bystander, load = loads
                bystander.consumption = (
                    (1.0 - share) * ceiling(bystander.constraint))
                load.consumption = share * ceiling(load.constraint)
            # The log holds no sweep that covers no time.
            elapsed = [dt for dt in steps if dt > 0]
            horizons = []
            for dt in elapsed:
                now += dt
                horizons.append(now + _TIME_TOLERANCE)
                replay(walked, (dt,), (horizons[-1],))
            for load in replayed:
                replay((load,), elapsed, horizons)
            for load in caught_up:
                catch_up(load, elapsed, horizons, 0)
            for loads in (replayed, caught_up):
                for mine, walks in zip(loads, walked):
                    assert (mine.constraint.state()
                            == walks.constraint.state())
                    assert (mine.constraint._next_grant_at
                            == walks.constraint._next_grant_at)
            terms = [earliest_change((load,), now) for load in walked]
            assert earliest_change(walked, now) == min(terms)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_walk_reports_exactly_the_ceilings_that_moved(self, data):
        scenario = _fabric_scenario(
            data, ["none", "continuous", "lambda", "stalling"])
        walk = Fabric._walk

        def spied(fabric):
            completed, moved = walk(fabric)
            expected = {}
            for state in fabric._shaped.values():
                current = ceiling(state.constraint)
                if current != state.capacity:
                    expected[state] = current
            # Checked here: a walk that misses a move can stall the run.
            assert len(moved) == len(expected)
            assert dict(moved) == expected
            return completed, moved

        Fabric._walk = spied
        try:
            _run_fabric_scenario(scenario)
        finally:
            Fabric._walk = walk
