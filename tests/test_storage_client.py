"""Tests for the retrying storage client."""

import pytest

from repro.network import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage import RetryingClient, RetryPolicy, S3Standard
from repro.storage.errors import NoSuchKey, RequestTimeout


@pytest.fixture
def stack():
    env = Environment()
    fabric = Fabric(env)
    rng = RandomStreams(seed=7)
    s3 = S3Standard(env, fabric, rng)
    return env, fabric, rng, s3


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_multiplier=2.0)
        assert policy.backoff(1) == pytest.approx(0.05)
        assert policy.backoff(2) == pytest.approx(0.10)
        assert policy.backoff(3) == pytest.approx(0.20)

    def test_backoff_capped(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_multiplier=10.0,
                             backoff_cap=5.0)
        assert policy.backoff(4) == 5.0


class TestRetryingClient:
    def test_successful_get(self, stack):
        env, fabric, rng, s3 = stack
        run(env, s3.put("k", b"v"))
        client = RetryingClient(env, s3, RetryPolicy(request_timeout=60.0))
        obj = run(env, client.get_range("k", 0, 1))
        assert obj.payload == b"v"
        assert client.stats.successes == 1
        assert client.stats.attempts == 1

    def test_non_retryable_error_propagates(self, stack):
        env, fabric, rng, s3 = stack
        client = RetryingClient(env, s3, RetryPolicy(request_timeout=60.0))

        def attempt(env):
            try:
                yield from client.get_range("missing", 0, 1)
            except NoSuchKey:
                return "missing"

        assert run(env, attempt(env)) == "missing"
        assert client.stats.attempts == 1

    def test_timeout_triggers_retry_with_backoff(self, stack):
        env, fabric, rng, s3 = stack
        run(env, s3.put("k", b"v"))
        # Impossible timeout: every attempt times out, then gives up.
        policy = RetryPolicy(request_timeout=1e-6, max_attempts=3,
                             backoff_base=0.1)
        client = RetryingClient(env, s3, policy)

        def attempt(env):
            try:
                yield from client.get_range("k", 0, 1)
            except RequestTimeout:
                return "gave-up"

        assert run(env, attempt(env)) == "gave-up"
        assert client.stats.attempts == 3
        assert client.stats.timeouts == 3
        assert client.stats.giveups == 1
        # Backoff waits of 0.1 + 0.2 elapsed between the three attempts.
        assert client.stats.backoff_time == pytest.approx(0.3)
        assert env.now >= 0.3

    def test_throttle_retried_until_tokens_refill(self, stack):
        env, fabric, rng, s3 = stack
        run(env, s3.put("k", b"v"))
        # Drain the partition's read tokens so the first attempt throttles.
        partition = s3.partitions.partition_for("k")
        partition.refresh_tokens(env.now)
        partition.read_tokens = 0.0
        client = RetryingClient(
            env, s3, RetryPolicy(request_timeout=60.0, backoff_base=0.05))
        obj = run(env, client.get_range("k", 0, 1))
        assert obj.payload == b"v"
        assert client.stats.throttles >= 1
        assert client.stats.successes == 1


class TestNonRetryableErrorsBurnNothing:
    """Application errors must fail fast: exactly one attempt, zero
    backoff — retrying a missing key cannot succeed, it only wastes the
    retry budget."""

    def test_no_such_key_not_retried_and_no_backoff(self, stack):
        env, fabric, rng, s3 = stack
        client = RetryingClient(
            env, s3, RetryPolicy(request_timeout=60.0, max_attempts=8))

        def attempt(env):
            try:
                yield from client.get_range("missing", 0, 1)
            except NoSuchKey as exc:
                return exc

        error = run(env, attempt(env))
        assert isinstance(error, NoSuchKey)
        assert "missing" in str(error)
        assert client.stats.attempts == 1
        assert client.stats.backoff_time == 0.0
        assert client.stats.throttles == 0
        assert client.stats.timeouts == 0
        assert client.stats.giveups == 0
