"""Tests for the futures executor, invoker, and response futures."""

import math

import pytest

from repro.futures import FunctionExecutor, invoker
from repro.faas import LambdaPlatform, supervisor
from repro.faas.supervisor import RecoveryPolicy
from repro.network import Fabric
from repro.sim import Environment, RandomStreams


class Transient(Exception):
    """A retryable application error (the invoker's retry trigger)."""

    retryable = True


def make_executor(recovery=RecoveryPolicy(), seed=11):
    env = Environment()
    fabric = Fabric(env)
    rng = RandomStreams(seed=seed)
    platform = LambdaPlatform(env, fabric, rng)
    executor = FunctionExecutor(env, platform, rng, recovery=recovery)
    return env, platform, executor


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def square(context, x):
    yield context.env.timeout(0.01)
    return x * x


def sleeper(context, spec):
    yield context.env.timeout(spec["sleep_s"])
    return spec["tag"]


class TestCallAsync:
    def test_returns_pending_future_then_resolves(self):
        env, _, executor = make_executor()
        future = executor.map(square, [6])[0]
        assert not future.done
        assert future.state == "pending"
        result = run(env, executor.get_result(future))
        assert result == 36
        assert future.success
        assert future.result() == 36
        assert len(future.attempts) == 1
        assert future.attempts[0].ok
        assert future.attempts[0].cost_usd > 0

    def test_result_before_done_raises(self):
        _, _, executor = make_executor()
        future = executor.map(square, [2])[0]
        with pytest.raises(RuntimeError, match="wait"):
            future.result()


class TestMap:
    def test_results_in_submission_order(self):
        env, _, executor = make_executor()
        futures = executor.map(square, range(8))
        results = run(env, executor.get_result(futures))
        assert results == [x * x for x in range(8)]

    def test_empty_iterable_yields_no_futures_and_no_job(self):
        _, _, executor = make_executor()
        assert executor.map(square, []) == []
        assert executor.jobs == []

    def test_bounded_inflight_concurrency(self, monkeypatch):
        monkeypatch.setattr(invoker, "MAX_INFLIGHT", 2)
        env, _, executor = make_executor()
        futures = executor.map(sleeper, [{"sleep_s": 0.2, "tag": i}
                                         for i in range(6)])
        run(env, executor.get_result(futures))
        assert executor.invoker.inflight_peak <= 2
        assert all(f.success for f in futures)


class TestWait:
    def test_all_completed_waits_for_everything(self):
        env, _, executor = make_executor()
        futures = executor.map(sleeper, [{"sleep_s": 0.1 * (i + 1),
                                          "tag": i} for i in range(4)])
        done, pending = run(env, executor.wait(futures))
        assert len(done) == 4 and pending == []
        assert all(future.done for future in done)
        assert env.now >= 0.4


def boom(context, data):
    yield context.env.timeout(0.01)
    raise ValueError(f"bad data {data}")


class TestErrors:
    def test_handler_error_captured_on_future(self):
        env, _, executor = make_executor()
        future = executor.map(boom, ["x"])[0]
        run(env, executor.wait([future]))
        assert future.state == "error"
        assert isinstance(future.error, ValueError)
        with pytest.raises(ValueError, match="bad data x"):
            future.result()
        # The failed attempt is still billed.
        assert future.cost_usd > 0

    def test_map_reduce_map_failure_fails_reduce_without_reducer(self):
        env, _, executor = make_executor()
        reducer_ran = []

        def reducer(context, results):
            reducer_ran.append(True)
            yield context.env.timeout(0.001)
            return results

        def maybe_boom(context, x):
            yield context.env.timeout(0.01)
            if x == 2:
                raise ValueError("poisoned item")
            return x

        reduce_future = executor.map_reduce(maybe_boom, range(4), reducer)
        run(env, executor.wait([reduce_future]))
        assert reduce_future.state == "error"
        assert isinstance(reduce_future.error, ValueError)
        assert reducer_ran == []


class TestRetries:
    def test_transient_failures_retried_to_success(self):
        env, _, executor = make_executor()
        calls = {"n": 0}

        def flaky(context, data):
            yield context.env.timeout(0.01)
            calls["n"] += 1
            if calls["n"] <= 2:
                raise Transient("not yet")
            return data

        future = executor.map(flaky, ["ok"])[0]
        result = run(env, executor.get_result(future))
        assert result == "ok"
        assert len(future.attempts) == 3
        assert [a.ok for a in future.attempts] == [False, False, True]
        assert executor.invoker.retries == 2
        # Failed attempts are billed too.
        assert all(a.cost_usd > 0 for a in future.attempts)

    def test_max_attempts_exhaustion_rejects(self):
        env, _, executor = make_executor(
            recovery=RecoveryPolicy(max_attempts=2))

        def always_flaky(context, data):
            yield context.env.timeout(0.01)
            raise Transient("forever")

        future = executor.map(always_flaky, [None])[0]
        run(env, executor.wait([future]))
        assert future.state == "error"
        assert isinstance(future.error, Transient)
        assert len(future.attempts) == 2

    def test_non_retryable_error_fails_immediately(self):
        env, _, executor = make_executor()
        future = executor.map(boom, ["z"])[0]
        run(env, executor.wait([future]))
        assert len(future.attempts) == 1
        assert executor.invoker.retries == 0

    def test_same_seed_same_backoff_schedule(self):
        def retry_times(seed):
            env, _, executor = make_executor(seed=seed)
            calls = {"n": 0}

            def flaky(context, data):
                yield context.env.timeout(0.01)
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise Transient("not yet")
                return data

            future = executor.map(flaky, [1])[0]
            run(env, executor.wait([future]))
            return [round(a.requested_at, 9) for a in future.attempts]

        assert retry_times(3) == retry_times(3)


class TestMapReduce:
    def test_reduce_sees_results_in_submission_order(self):
        env, _, executor = make_executor()

        def reducer(context, results):
            yield context.env.timeout(0.001)
            return results

        # Later items sleep less, so completion order is reversed.
        specs = [{"sleep_s": 0.5 - 0.1 * i, "tag": i} for i in range(4)]
        reduce_future = executor.map_reduce(sleeper, specs, reducer)
        result = run(env, executor.get_result(reduce_future))
        assert result == [0, 1, 2, 3]
        assert [f.result() for f in reduce_future.map_futures] \
            == [0, 1, 2, 3]


class TestSpeculation:
    def test_straggler_gets_duplicate_and_zombie_drains(self, monkeypatch):
        monkeypatch.setattr(supervisor, "STRAGGLER_POLL_S", 0.1)
        monkeypatch.setattr(supervisor, "STRAGGLER_MIN_WAIT_S", 0.3)
        monkeypatch.setattr(supervisor, "STRAGGLER_FACTOR", 2.0)
        monkeypatch.setattr(supervisor, "STRAGGLER_QUORUM", 0.5)
        env, _, executor = make_executor(
            recovery=RecoveryPolicy(hedge=True))
        specs = [{"sleep_s": 0.05, "tag": i} for i in range(7)]
        specs.append({"sleep_s": 10.0, "tag": "straggler"})
        futures = executor.map(sleeper, specs)
        results = run(env, executor.get_result(futures))
        assert results[-1] == "straggler"
        assert executor.invoker.hedges >= 1
        straggler = futures[-1]
        assert straggler.hedged
        drained = run(env, executor.drain())
        assert drained >= 1
        # Both the winning and the abandoned attempt are billed.
        assert len(straggler.attempts) == 2


class TestAccounting:
    def test_per_future_costs_match_catalog_total(self):
        env, _, executor = make_executor()
        futures = executor.map(square, range(10))
        run(env, executor.get_result(futures))
        compute = executor.compute_cost_usd()
        catalog = executor.catalog_cost_usd()
        assert compute > 0
        assert math.isclose(compute, catalog, rel_tol=1e-9, abs_tol=1e-15)
        assert math.isclose(compute, sum(f.cost_usd for f in futures),
                            rel_tol=1e-12)

    def test_summary_counts_states(self):
        env, _, executor = make_executor()
        futures = executor.map(square, range(5))
        futures.append(executor.map(boom, ["q"])[0])
        run(env, executor.wait(futures))
        summary = executor.summary()
        assert summary["states"] == {"pending": 0, "running": 0,
                                     "success": 5, "error": 1}
        assert summary["calls"] == 6
