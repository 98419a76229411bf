"""Cross-cutting property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.engine.shuffle import _hash_partition
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema
from repro.network import Fabric
from repro.network.shaper import TokenBucketShaper
from repro.pricing import STORAGE_PRICES
from repro.pricing.breakeven import (
    CapacityTier,
    break_even_interval_capacity,
    break_even_interval_requests,
)
from repro.sim import Environment
from repro.storage.latency import LatencyModel


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


class TestFabricIncrementalEquivalence:
    """The incremental max-min allocator must be bit-for-bit identical
    to the from-scratch reference under random arrival/departure mixes.
    """

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_incremental_matches_full_recompute(self, data):
        n_links = data.draw(st.integers(min_value=1, max_value=4),
                            label="n_links")
        caps = data.draw(st.lists(
            st.floats(min_value=10.0, max_value=1e4),
            min_size=n_links, max_size=n_links), label="capacities")
        # A few shared endpoints, so shapers see several flows at once,
        # go idle between them and are reactivated (idle refill).
        shaping = data.draw(st.lists(
            st.sampled_from(["none", "continuous", "lambda"]),
            min_size=2, max_size=5), label="endpoint_shaping")
        n_flows = data.draw(st.integers(min_value=1, max_value=12),
                            label="n_flows")
        pick = st.integers(min_value=0, max_value=len(shaping) - 1)
        specs = []
        for i in range(n_flows):
            start = data.draw(st.floats(min_value=0.0, max_value=5.0),
                              label=f"start_{i}")
            size = data.draw(st.floats(min_value=1.0, max_value=5e3),
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
            specs.append((start, size, src, dst, tuple(link_ids),
                          stop_after))
        # A mid-run chaos degradation: only the drift check sees it.
        degrade_at = data.draw(st.floats(min_value=0.0, max_value=6.0),
                               label="degrade_at")
        degrade_on = data.draw(pick, label="degrade_on")
        factor = data.draw(st.floats(min_value=0.1, max_value=1.0),
                           label="degrade_factor")

        def run(force_full):
            env = Environment()
            fabric = Fabric(env)
            fabric._force_full = force_full
            links = [fabric.link(capacity=cap, name=f"l{j}")
                     for j, cap in enumerate(caps)]
            make = {"none": lambda: None,
                    "continuous": _continuous_shaper,
                    "lambda": _lambda_style_shaper}
            endpoints = [fabric.endpoint(f"e{j}", ingress=make[kind](),
                                         egress=make[kind]())
                         for j, kind in enumerate(shaping)]
            shapers = [shaper for endpoint in endpoints
                       for shaper in (endpoint.ingress, endpoint.egress)
                       if shaper is not None]
            flows = []

            def starter(start, size, src, dst, link_ids, stop_after):
                yield env.timeout(start)
                chosen = tuple(links[j] for j in link_ids)
                if stop_after is None:
                    flows.append(fabric.transfer(
                        endpoints[src], endpoints[dst], size=size,
                        links=chosen))
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

            for i, spec in enumerate(specs):
                env.process(starter(*spec), name=f"flow-{i}")
            env.process(degrader(), name="degrade")
            env.run()
            return ([(f.id, f.transferred, f.finished_at) for f in flows],
                    [(s.state(), s._next_grant_at) for s in shapers],
                    env.scheduled_events)

        assert run(False) == run(True)


class TestShaperSweepIsTheScalarFace:
    """There is one copy of the bucket arithmetic: a shaper advanced by
    the fabric's sweeps, among other loads, holds bit-identical state to
    one driven through ``advance``/``allowed_rate``/``next_change``."""

    @given(quantized=st.booleans(),
           one_off=st.floats(min_value=0.0, max_value=500.0),
           refill=st.floats(min_value=0.0, max_value=400.0),
           steps=st.lists(
               st.tuples(st.floats(min_value=0.0, max_value=0.7),
                         st.floats(min_value=0.0, max_value=1.0)),
               min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_scalar_methods(self, quantized, one_off, refill,
                                          steps):
        from repro.network.fabric import _ConstraintState
        from repro.network.shaper import advance_shapers, earliest_change

        def make():
            return TokenBucketShaper(
                capacity=600.0, burst_rate=1e3, refill_rate=refill,
                mode="quantized" if quantized else "continuous",
                one_off_budget=one_off, grant_interval=0.1)

        scalar, swept, bystander = make(), make(), _lambda_style_shaper()
        loads = [_ConstraintState(0, bystander), _ConstraintState(1, swept)]
        now = 0.0
        for elapsed, share in steps:
            now += elapsed
            # The fabric never lets flows draw more than the ceiling.
            rate = share * scalar.allowed_rate()
            for load in loads:
                load.capacity = load.constraint.allowed_rate()
            loads[1].consumption = rate
            moved = dict(advance_shapers(loads, now, elapsed))
            scalar.advance(now, elapsed, rate)
            assert swept.state() == scalar.state()
            assert swept._next_grant_at == scalar._next_grant_at
            ceiling = scalar.allowed_rate()
            assert moved.get(loads[1], loads[1].capacity) == ceiling
            assert (earliest_change(loads[1:], now)
                    == scalar.next_change(now, rate))
            assert (earliest_change(loads, now)
                    == min(scalar.next_change(now, rate),
                           bystander.next_change(now, 0.0)))
