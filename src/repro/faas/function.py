"""Function configuration, invocation records, and handler context."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import units
from repro.pricing.catalog import LAMBDA_PRICING

#: Lambda memory configuration bounds (Table 1).
MIN_MEMORY = 128 * units.MiB
MAX_MEMORY = 10_240 * units.MiB

#: Lambda ephemeral storage bounds (Table 1).
MIN_EPHEMERAL = 512 * units.MiB
MAX_EPHEMERAL = 10 * units.GiB

#: Maximum function execution time (15 minutes) [40].
MAX_DURATION_S = 900.0


@dataclass(frozen=True)
class FunctionConfig:
    """A deployed cloud function: binary plus sizing configuration.

    ``handler`` is a generator function ``handler(context, payload)``
    executed as a simulation process — the Python stand-in for the
    function binary.
    """

    name: str
    handler: Callable[["FunctionContext", Any], Any]
    memory_bytes: float = 1_769 * units.MiB
    binary_bytes: float = 8 * units.MiB
    ephemeral_bytes: float = 512 * units.MiB

    def __post_init__(self) -> None:
        if not MIN_MEMORY <= self.memory_bytes <= MAX_MEMORY:
            raise ValueError(
                f"memory {self.memory_bytes / units.MiB:.0f} MiB outside "
                f"Lambda's 128 MiB - 10 GiB range")
        if not MIN_EPHEMERAL <= self.ephemeral_bytes <= MAX_EPHEMERAL:
            raise ValueError("ephemeral storage outside 512 MiB - 10 GiB")

    @property
    def vcpus(self) -> float:
        """vCPU-equivalents: 1 per 1,769 MiB of memory [39, 40]."""
        return self.memory_bytes / LAMBDA_PRICING.memory_per_vcpu_bytes


@dataclass
class InvocationRecord:
    """Outcome and accounting data of one function invocation."""

    function: str
    sandbox_id: int
    cold: bool
    requested_at: float
    started_at: float
    finished_at: float
    response: Any = None
    error: Optional[BaseException] = None

    @property
    def init_duration(self) -> float:
        """Startup overhead (queueing + coldstart) before the handler ran."""
        return self.started_at - self.requested_at

    @property
    def duration(self) -> float:
        """Billed duration: handler execution time."""
        return self.finished_at - self.started_at


@dataclass
class FunctionContext:
    """Execution context handed to a running function handler.

    Exposes the sandbox's network endpoint (for storage and network I/O
    through the simulated fabric), the function sizing, and simulation
    facilities.
    """

    env: Any
    platform: Any
    config: FunctionConfig
    endpoint: Any
    sandbox_id: int
    cold: bool
    region: str = "us-east-1"
    #: Telemetry span context of the platform's invoke span (a
    #: :class:`repro.telemetry.Span` or ``None`` when not recording);
    #: handlers parent their own spans under it.
    trace_ctx: Any = None

    @property
    def vcpus(self) -> float:
        """vCPU-equivalents available to the handler."""
        return self.config.vcpus

    def compute(self, cpu_seconds: float):
        """Event: spend ``cpu_seconds`` of single-core CPU work.

        The work parallelizes perfectly across the function's vCPUs, which
        matches the vectorized, embarrassingly parallel operators the
        Skyrise engine runs.
        """
        wall = cpu_seconds / max(self.vcpus, 0.25)
        return self.env.timeout(wall)
