"""Unit tests for simulation resources (Resource) and RNG streams."""

import pytest

from repro.sim import Environment, Resource
from repro.sim.rng import RandomStreams


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grants_up_to_capacity(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        log = []

        def user(env, name, hold):
            with resource.request() as req:
                yield req
                log.append((name, "acquired", env.now))
                yield env.timeout(hold)
            log.append((name, "released", env.now))

        env.process(user(env, "a", 5.0))
        env.process(user(env, "b", 5.0))
        env.process(user(env, "c", 1.0))
        env.run()
        acquired = [entry for entry in log if entry[1] == "acquired"]
        assert acquired == [
            ("a", "acquired", 0.0),
            ("b", "acquired", 0.0),
            ("c", "acquired", 5.0),
        ]

    def test_waiters_are_served_in_request_order(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(10.0)

        def waiter(env, name, arrive):
            yield env.timeout(arrive)
            with resource.request() as req:
                yield req
                order.append((name, env.now))
                yield env.timeout(1.0)

        env.process(holder(env))
        env.process(waiter(env, "third", 3.0))
        env.process(waiter(env, "first", 1.0))
        env.process(waiter(env, "second", 2.0))
        env.run()
        assert order == [("first", 10.0), ("second", 11.0), ("third", 12.0)]

    def test_cancel_waiting_request(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(5.0)

        def impatient(env):
            req = resource.request()
            yield env.timeout(1.0)
            resource.release(req)  # cancel before grant
            return len(resource._queue)

        env.process(holder(env))
        p = env.process(impatient(env))
        env.run()
        assert p.value == 0
        assert resource.count == 0

    def test_count_tracks_users(self):
        env = Environment()
        resource = Resource(env, capacity=3)

        def user(env):
            with resource.request() as req:
                yield req
                yield env.timeout(1.0)

        for _ in range(3):
            env.process(user(env))
        env.run(until=0.5)
        assert resource.count == 3
        env.run()
        assert resource.count == 0


class TestRandomStreams:
    def test_same_name_same_sequence(self):
        a = RandomStreams(seed=7).stream("latency")
        b = RandomStreams(seed=7).stream("latency")
        assert list(a.random(5)) == list(b.random(5))

    def test_different_names_differ(self):
        streams = RandomStreams(seed=7)
        a = streams.stream("latency").random(5)
        b = streams.stream("placement").random(5)
        assert list(a) != list(b)

    def test_stream_cached(self):
        streams = RandomStreams(seed=1)
        assert streams.stream("x") is streams.stream("x")
