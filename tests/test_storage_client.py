"""Tests for the retrying storage client."""

import pytest

from repro.network import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage import RetryingClient, S3Standard, client as client_module
from repro.storage.client import BACKOFF_CAP_S, MAX_ATTEMPTS, backoff
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
        assert backoff(1) == pytest.approx(0.05)
        assert backoff(2) == pytest.approx(0.10)
        assert backoff(3) == pytest.approx(0.20)

    def test_backoff_capped(self):
        assert backoff(8) < BACKOFF_CAP_S
        assert backoff(9) == backoff(20) == BACKOFF_CAP_S


class TestRetryingClient:
    def test_successful_get(self, stack):
        env, fabric, rng, s3 = stack
        run(env, s3.put("k", b"v"))
        client = RetryingClient(env, s3)
        obj = run(env, client.get_range("k", 0, 1))
        assert obj.payload == b"v"
        assert client.stats.successes == 1
        assert client.stats.attempts == 1

    def test_non_retryable_error_propagates(self, stack):
        env, fabric, rng, s3 = stack
        client = RetryingClient(env, s3)

        def attempt(env):
            try:
                yield from client.get_range("missing", 0, 1)
            except NoSuchKey:
                return "missing"

        assert run(env, attempt(env)) == "missing"
        assert client.stats.attempts == 1

    def test_timeout_triggers_retry_with_backoff(self, stack, monkeypatch):
        env, fabric, rng, s3 = stack
        run(env, s3.put("k", b"v"))
        # Impossible timeout: every attempt times out, then gives up.
        monkeypatch.setattr(client_module, "REQUEST_TIMEOUT_S", 1e-6)
        client = RetryingClient(env, s3)

        def attempt(env):
            try:
                yield from client.get_range("k", 0, 1)
            except RequestTimeout:
                return "gave-up"

        assert run(env, attempt(env)) == "gave-up"
        assert client.stats.attempts == MAX_ATTEMPTS
        assert client.stats.timeouts == MAX_ATTEMPTS
        assert client.stats.giveups == 1
        # A backoff wait elapsed between each two attempts.
        waited = sum(backoff(a) for a in range(1, MAX_ATTEMPTS))
        assert client.stats.backoff_time == pytest.approx(waited)
        assert env.now >= waited

    def test_throttle_retried_until_tokens_refill(self, stack):
        env, fabric, rng, s3 = stack
        run(env, s3.put("k", b"v"))
        # Drain the partition's read tokens so the first attempt throttles.
        partition = s3.partitions.partition_for("k")
        partition.refresh_tokens(env.now)
        partition.read_tokens = 0.0
        client = RetryingClient(env, s3)
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
        client = RetryingClient(env, s3)

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
