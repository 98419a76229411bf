"""Vectorized batching equals its per-event spec, bit for bit.

The Zipf trace has a vectorized production path (``zipf_trace``) and
a scalar per-event reference (``zipf_trace_reference``). These tests
pin byte-identity of outputs *and* generator end state, plus a golden
hash of the smoke-config trace so any drift in either path — or in
numpy's stream contract — fails loudly.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.replay import ReplayConfig
from repro.sim.rng import RandomStreams
from repro.workloads.traffic import zipf_trace

#: sha256 over the smoke-config trace bytes (times ++ ids); pins the
#: exact trace every smoke replay — kernel or reference — consumes.
SMOKE_TRACE_SHA256 = \
    "ac681ceb8e91c9f6d09ca7ea6295f63565290fa5f7eec09fd1c870af26736235"


def zipf_trace_reference(rng, tenants: int, events: int, window_s: float,
                         s: float = 1.2):
    """Per-event reference implementation of :func:`zipf_trace`.

    The executable spec the vectorized generator is pinned against:
    every distribution draw happens one event at a time, in the same
    order and against the same generator state, so the output is
    **byte-identical** to :func:`zipf_trace` — numpy's batched
    samplers fill element-wise from the bit stream, which the equality
    test turns from an implementation detail into a checked contract.
    The whole-trace permutation primitives (``permutation``,
    ``shuffle``) are shared with the vectorized path: they have no
    per-event decomposition — they *are* single draws over the trace.

    O(events) Python-loop cost, so it lives with its tests.
    """
    if tenants <= 0 or events <= 0:
        raise ValueError("tenants and events must be positive")
    if events < tenants:
        raise ValueError(
            f"need events >= tenants for full coverage "
            f"({events} < {tenants})")
    if window_s <= 0:
        raise ValueError("window must be positive")
    if s <= 1.0:
        raise ValueError("zipf exponent must exceed 1.0")
    coverage = rng.permutation(tenants)
    limit = tenants - 1
    extra = np.empty(events - tenants, dtype=np.int64)
    for index in range(events - tenants):
        draw = int(rng.zipf(s)) - 1
        extra[index] = draw if draw < limit else limit
    ids = np.concatenate([coverage, extra])
    rng.shuffle(ids)
    times = np.empty(events, dtype=np.float64)
    for index in range(events):
        times[index] = rng.uniform(0.0, window_s)
    times.sort()
    return times, ids.astype(np.int64)


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

