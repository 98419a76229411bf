"""Unit tests for simulation resources (Resource, Store)."""

import pytest

from repro.sim import Environment, Resource, Store
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

    def test_priority_queue_ordering(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(10.0)

        def waiter(env, name, priority, arrive):
            yield env.timeout(arrive)
            with resource.request(priority=priority) as req:
                yield req
                order.append(name)

        env.process(holder(env))
        env.process(waiter(env, "low", 5, 1.0))
        env.process(waiter(env, "high", 0, 2.0))
        env.run()
        assert order == ["high", "low"]

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
            return resource.queue_length

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


class TestStore:
    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        received = []

        def producer(env):
            for item in ("x", "y", "z"):
                yield store.put(item)
                yield env.timeout(1.0)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == ["x", "y", "z"]

    def test_bounded_capacity_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)

        def producer(env):
            yield store.put(1)
            yield store.put(2)
            return env.now

        def consumer(env):
            yield env.timeout(5.0)
            yield store.get()

        p = env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert p.value == 5.0

    def test_get_blocks_on_empty(self):
        env = Environment()
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (item, env.now)

        def producer(env):
            yield env.timeout(4.0)
            yield store.put("late")

        p = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert p.value == ("late", 4.0)


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

    def test_fork_is_independent(self):
        root = RandomStreams(seed=3)
        child = root.fork("region-eu")
        a = root.stream("latency").random(4)
        b = child.stream("latency").random(4)
        assert list(a) != list(b)
