"""Vectorized batching equals its per-event specs, bit for bit.

Two generators have both a vectorized production path and a scalar
per-event reference: the Zipf trace (``zipf_trace`` vs
``zipf_trace_reference``) and latency sampling
(``LatencyModel.sample_batch`` vs repeated ``sample_one``). These
tests pin byte-identity of outputs *and* generator end state, plus a
golden hash of the smoke-config trace so any drift in either path —
or in numpy's stream contract — fails loudly.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.replay import ReplayConfig
from repro.sim.rng import RandomStreams
from repro.storage.latency import LatencyModel
from repro.workloads.traffic import zipf_trace, zipf_trace_reference

#: sha256 over the smoke-config trace bytes (times ++ ids); pins the
#: exact trace every smoke replay — kernel or reference — consumes.
SMOKE_TRACE_SHA256 = \
    "ac681ceb8e91c9f6d09ca7ea6295f63565290fa5f7eec09fd1c870af26736235"


class TestZipfTraceReference:
    @pytest.mark.parametrize("tenants,events,window,s", [
        (300, 300, 60.0, 1.3),      # coverage only, no zipf draws
        (500, 2_500, 120.0, 1.3),
        (1_000, 5_000, 600.0, 2.5),
    ])
    def test_vectorized_equals_per_event_reference(self, tenants, events,
                                                   window, s):
        vec = zipf_trace(RandomStreams(7).stream("shard.trace"),
                         tenants, events, window, s=s)
        ref = zipf_trace_reference(RandomStreams(7).stream("shard.trace"),
                                   tenants, events, window, s=s)
        assert vec[0].tobytes() == ref[0].tobytes()
        assert vec[1].tobytes() == ref[1].tobytes()

    @given(tenants=st.integers(min_value=10, max_value=400),
           extra=st.integers(min_value=0, max_value=1_200),
           seed=st.integers(min_value=0, max_value=2**31 - 1),
           s=st.floats(min_value=1.05, max_value=3.5))
    @settings(max_examples=30, deadline=None)
    def test_reference_equivalence_is_an_invariant(self, tenants, extra,
                                                   seed, s):
        args = (tenants, tenants + extra, 300.0)
        vec = zipf_trace(np.random.default_rng(seed), *args, s=s)
        ref = zipf_trace_reference(np.random.default_rng(seed), *args, s=s)
        assert vec[0].tobytes() == ref[0].tobytes()
        assert vec[1].tobytes() == ref[1].tobytes()

    def test_smoke_config_trace_matches_the_golden_hash(self):
        config = ReplayConfig().smoke()
        times, ids = zipf_trace(
            RandomStreams(config.seed).stream("shard.trace"),
            config.tenants, config.events, config.window_s,
            s=config.zipf_s)
        digest = hashlib.sha256()
        digest.update(times.tobytes())
        digest.update(ids.tobytes())
        assert digest.hexdigest() == SMOKE_TRACE_SHA256

    def test_validation_matches_the_vectorized_path(self):
        rng = np.random.default_rng(0)
        for bad in [dict(tenants=0, events=5), dict(tenants=5, events=4),
                    dict(tenants=5, events=5, window_s=0.0),
                    dict(tenants=5, events=5, s=1.0)]:
            kwargs = dict(tenants=10, events=20, window_s=60.0, s=1.3)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                zipf_trace(rng, **kwargs)
            with pytest.raises(ValueError):
                zipf_trace_reference(rng, **kwargs)


class TestSampleBatch:
    @pytest.mark.parametrize("tail", [0.0, 0.08, 0.5])
    def test_stream_identical_to_repeated_sample_one(self, tail):
        model = LatencyModel(median=0.02, p95=0.06, tail_probability=tail)
        batch_rng = np.random.default_rng(11)
        one_rng = np.random.default_rng(11)
        batch = model.sample_batch(batch_rng, 3_000)
        ones = np.array([model.sample_one(one_rng) for _ in range(3_000)])
        assert batch.tobytes() == ones.tobytes()
        # End state equality: a later consumer of either generator
        # sees the same stream — batching is transparent.
        assert batch_rng.bit_generator.state == one_rng.bit_generator.state

    @given(median=st.floats(min_value=1e-4, max_value=1.0),
           spread=st.floats(min_value=1.0, max_value=30.0),
           tail=st.floats(min_value=0.0, max_value=0.9),
           seed=st.integers(min_value=0, max_value=2**31 - 1),
           n=st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_is_an_invariant(self, median, spread, tail, seed,
                                         n):
        model = LatencyModel(median=median, p95=median * spread,
                             tail_probability=tail)
        batch_rng = np.random.default_rng(seed)
        one_rng = np.random.default_rng(seed)
        batch = model.sample_batch(batch_rng, n)
        ones = np.array([model.sample_one(one_rng) for _ in range(n)])
        assert batch.tobytes() == ones.tobytes()
        assert batch_rng.bit_generator.state == one_rng.bit_generator.state

    def test_ceiling_clamps_the_batch(self):
        model = LatencyModel(median=5.0, p95=50.0, ceiling=6.0)
        batch = model.sample_batch(np.random.default_rng(3), 500)
        assert float(batch.max()) <= 6.0

    def test_negative_n_rejected(self):
        model = LatencyModel(median=0.02, p95=0.06)
        with pytest.raises(ValueError):
            model.sample_batch(np.random.default_rng(0), -1)
