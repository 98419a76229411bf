"""Storage client with timeouts, retries, and exponential backoff.

Models the paper's S3 client configuration for the IOPS scaling
experiment (Section 4.4.1): a 200 ms request timeout with exponential
backoff — "an eager but not aggressive retry behaviour". Clients whose
requests are repeatedly rejected wait exponentially longer and turn into
stragglers, which is exactly the effect behind the throughput dips of
Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.network.fabric import Endpoint
from repro.sim import AnyOf, Environment
from repro.storage.base import StorageService
from repro.storage.errors import RequestTimeout, StorageError

#: The client's timeout and backoff (Section 4.4.1).
REQUEST_TIMEOUT_S = 0.2
MAX_ATTEMPTS = 8
BACKOFF_BASE_S = 0.05
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP_S = 10.0


def backoff(attempt: int) -> float:
    """Backoff delay before retry number ``attempt`` (1-based)."""
    delay = BACKOFF_BASE_S * BACKOFF_MULTIPLIER ** (attempt - 1)
    return min(delay, BACKOFF_CAP_S)


@dataclass
class ClientStats:
    """Per-client request accounting, including failures and retries."""

    attempts: int = 0
    successes: int = 0
    timeouts: int = 0
    throttles: int = 0
    giveups: int = 0
    backoff_time: float = 0.0


class RetryingClient:
    """Ranged reads of a storage service with timeout/retry semantics."""

    def __init__(self, env: Environment, service: StorageService,
                 endpoint: Optional[Endpoint] = None) -> None:
        self.env = env
        self.service = service
        self.endpoint = endpoint
        self.stats = ClientStats()

    def get_range(self, key: str, offset: float, length: float):
        """Process: ranged read with retries. Returns the StorageObject."""
        last_error: Optional[StorageError] = None
        try:
            for attempt in range(1, MAX_ATTEMPTS + 1):
                self.stats.attempts += 1
                try:
                    result = yield from self._timed(key, offset, length)
                    self.stats.successes += 1
                    return result
                except RequestTimeout as exc:
                    self.stats.timeouts += 1
                    last_error = exc
                except StorageError as exc:
                    if not exc.retryable:
                        raise
                    self.stats.throttles += 1
                    last_error = exc
                if attempt < MAX_ATTEMPTS:
                    delay = backoff(attempt)
                    self.stats.backoff_time += delay
                    yield self.env.timeout(delay)
            self.stats.giveups += 1
            raise last_error if last_error is not None else RequestTimeout(key)
        finally:
            # The error's traceback keeps this frame: the frame must not
            # keep the error, or the two outlive the call as a cycle.
            del last_error

    def _timed(self, key: str, offset: float, length: float):
        """Race one ranged read against the client timeout."""
        request = self.env.process(
            self.service.get_range(key, offset, length,
                                   endpoint=self.endpoint),
            name="storage-get-range")
        deadline = self.env.timeout(REQUEST_TIMEOUT_S)
        try:
            yield AnyOf(self.env, [request, deadline])
            if request.processed:
                if not request.ok:
                    raise request.value
                return request.value
            # Timed out: abandon the in-flight request.
            if request.is_alive:
                request.interrupt("client-timeout")
                request.defuse()
            raise RequestTimeout(f"get-range {key!r} exceeded "
                                 f"{REQUEST_TIMEOUT_S * 1000:.0f} ms")
        finally:
            del request  # it holds the failure this frame is raising
