"""Minimal (no-op) function: startup and idle-lifetime experiments.

The minimal binary links no libraries — only random BLOBs of
pre-specified sizes — so its invocations isolate FaaS platform overheads
(Table 3: startup latency, idle lifetime).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units
from repro.core.context import CloudSim
from repro.faas.function import FunctionConfig

#: Invocation pairs per idle gap (each a warm-up, the gap, a probe).
IDLE_PROBES_PER_GAP = 10

def _deploy_minimal(sim: CloudSim, binary_bytes: float) -> str:
    name = f"minimal-{int(binary_bytes)}"

    def minimal_handler(context, payload):
        yield context.env.timeout(1e-4)  # the no-op body
        return payload

    sim.platform.deploy(FunctionConfig(
        name=name, handler=minimal_handler,
        memory_bytes=128 * units.MiB, binary_bytes=binary_bytes))
    return name


@dataclass
class StartupResult:
    """Cold vs warm startup latencies for one binary size."""

    binary_bytes: float
    cold_latencies: list[float]
    warm_latencies: list[float]

    @property
    def cold_median(self) -> float:
        """Median coldstart latency (seconds)."""
        ordered = sorted(self.cold_latencies)
        return ordered[len(ordered) // 2]

    @property
    def warm_median(self) -> float:
        """Median warmstart latency (seconds)."""
        ordered = sorted(self.warm_latencies)
        return ordered[len(ordered) // 2]


def measure_startup_latency(sim: CloudSim, binary_bytes: float = 1 * units.MiB,
                            repetitions: int = 20) -> StartupResult:
    """Measure cold and warm startup latency of the minimal function.

    Coldstarts are forced by invoking the function concurrently
    (spreading across fresh sandboxes); warmstarts reuse the pool.
    """
    name = _deploy_minimal(sim, binary_bytes)
    cold: list[float] = []
    warm: list[float] = []

    def scenario(env):
        # Concurrent burst: every invocation needs its own (cold) sandbox.
        burst = [env.process(sim.platform.invoke(name))
                 for _ in range(repetitions)]
        for process in burst:
            record = yield process
            cold.append(record.init_duration)
        # Back-to-back reuse: warm.
        for _ in range(repetitions):
            record = yield from sim.platform.invoke(name)
            warm.append(record.init_duration)

    sim.run(scenario(sim.env))
    return StartupResult(binary_bytes=binary_bytes, cold_latencies=cold,
                         warm_latencies=warm)


def measure_idle_lifetime(sim: CloudSim,
                          gaps_s: list[float]) -> dict[float, float]:
    """Probe how often a sandbox is still warm after each idle gap.

    Returns gap -> fraction of probes that found a warm sandbox. The
    crossover locates the platform's idle reclamation horizon.
    """
    name = _deploy_minimal(sim, 1 * units.MiB)
    warm_fraction: dict[float, float] = {}

    def scenario(env):
        for gap in gaps_s:
            hits = 0
            for _ in range(IDLE_PROBES_PER_GAP):
                yield from sim.platform.invoke(name)  # ensure a sandbox
                yield env.timeout(gap)
                record = yield from sim.platform.invoke(name)
                if not record.cold:
                    hits += 1
            warm_fraction[gap] = hits / IDLE_PROBES_PER_GAP

    sim.run(scenario(sim.env))
    return warm_fraction
