"""Storage client with timeouts, retries, and exponential backoff.

Models the paper's S3 client configuration for the IOPS scaling
experiment (Section 4.4.1): a 200 ms request timeout with exponential
backoff — "an eager but not aggressive retry behaviour". Clients whose
requests are repeatedly rejected wait exponentially longer and turn into
stragglers, which is exactly the effect behind the throughput dips of
Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.network.fabric import Endpoint
from repro.sim import AnyOf, Environment
from repro.storage.base import StorageService
from repro.storage.errors import RequestTimeout, StorageError


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side timeout and backoff configuration."""

    request_timeout: float = 0.2
    max_attempts: int = 8
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 10.0

    def backoff(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt`` (1-based)."""
        delay = self.backoff_base * self.backoff_multiplier ** (attempt - 1)
        return min(delay, self.backoff_cap)


@dataclass
class ClientStats:
    """Per-client request accounting, including failures and retries."""

    attempts: int = 0
    successes: int = 0
    timeouts: int = 0
    throttles: int = 0
    giveups: int = 0
    backoff_time: float = 0.0
    outcomes: dict[str, int] = field(default_factory=dict)


class RetryingClient:
    """Wraps a storage service with timeout/retry semantics."""

    def __init__(self, env: Environment, service: StorageService,
                 policy: Optional[RetryPolicy] = None,
                 endpoint: Optional[Endpoint] = None) -> None:
        self.env = env
        self.service = service
        self.policy = policy if policy is not None else RetryPolicy()
        self.endpoint = endpoint
        self.stats = ClientStats()
        #: Chaos hook: ``hook(op, key, now)`` returning an error to
        #: inject client-side, or ``None``. Injected errors go through
        #: the same retry/backoff classification as real ones.
        self.fault_hook = None

    def get(self, key: str):
        """Process: read ``key`` with retries. Returns the StorageObject."""
        result = yield from self._with_retries("get", key, None, None)
        return result

    def get_range(self, key: str, offset: float, length: float):
        """Process: ranged read with retries. Returns the StorageObject."""
        result = yield from self._with_retries("get-range", key, None, None,
                                               offset=offset, length=length)
        return result

    def put(self, key: str, payload, size: Optional[float] = None):
        """Process: write ``key`` with retries. Returns the StorageObject."""
        result = yield from self._with_retries("put", key, payload, size)
        return result

    def _attempt(self, op: str, key: str, payload, size, offset, length):
        if op == "get":
            return self.service.get(key, endpoint=self.endpoint)
        if op == "get-range":
            return self.service.get_range(key, offset, length,
                                          endpoint=self.endpoint)
        return self.service.put(key, payload, size=size, endpoint=self.endpoint)

    def _with_retries(self, op: str, key: str, payload, size,
                      offset: float = 0.0, length: float = 0.0):
        last_error: Optional[StorageError] = None
        try:
            for attempt in range(1, self.policy.max_attempts + 1):
                self.stats.attempts += 1
                try:
                    result = yield from self._timed(op, key, payload, size,
                                                    offset, length)
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
                if attempt < self.policy.max_attempts:
                    delay = self.policy.backoff(attempt)
                    self.stats.backoff_time += delay
                    yield self.env.timeout(delay)
            self.stats.giveups += 1
            raise last_error if last_error is not None else RequestTimeout(key)
        finally:
            # The error's traceback keeps this frame: the frame must not
            # keep the error, or the two outlive the call as a cycle.
            del last_error

    def _timed(self, op: str, key: str, payload, size, offset=0.0,
               length=0.0):
        """Race one service request against the client timeout."""
        if self.fault_hook is not None:
            # Ranged reads classify as plain GETs for fault targeting,
            # so chaos plans written against "get" cover both.
            hook_op = "get" if op.startswith("get") else op
            error = self.fault_hook(hook_op, key, self.env.now)
            if error is not None:
                try:
                    raise error
                finally:
                    del error  # same cycle, through this frame
        request = self.env.process(
            self._attempt(op, key, payload, size, offset, length),
            name=f"storage-{op}")
        deadline = self.env.timeout(self.policy.request_timeout)
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
            raise RequestTimeout(f"{op} {key!r} exceeded "
                                 f"{self.policy.request_timeout * 1000:.0f} ms")
        finally:
            del request  # it holds the failure this frame is raising
