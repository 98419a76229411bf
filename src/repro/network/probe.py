"""Throughput probes: fixed-interval samplers of flow progress.

The paper plots network throughput at 20 ms intervals (Figures 5 and 7).
A probe wakes every ``interval`` seconds, syncs the fabric, and records the
bytes moved since the previous sample, either for a single flow or for the
sum over a set of flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.network.fabric import Fabric, Flow
from repro.sim import Environment, Interrupt


@dataclass
class ProbeSample:
    """One throughput sample."""

    time: float
    bytes: float


@dataclass
class ProbeSeries:
    """The full time series a probe collected."""

    interval: float
    samples: list[ProbeSample] = field(default_factory=list)

    def rates(self) -> list[float]:
        """Per-interval throughput in bytes/second."""
        return [sample.bytes / self.interval for sample in self.samples]

    def times(self) -> list[float]:
        """Sample timestamps (end of each interval)."""
        return [sample.time for sample in self.samples]

    def peak_rate(self) -> float:
        """Maximum per-interval rate observed."""
        rates = self.rates()
        return max(rates) if rates else 0.0


class ThroughputProbe:
    """Samples aggregate progress of a set of flows at a fixed interval.

    The flow set is late-bound via a callable so that probes can observe
    flows created after the probe started (e.g. repeated bursts).
    """

    def __init__(self, env: Environment, fabric: Fabric,
                 flows: Callable[[], Iterable[Flow]] | Iterable[Flow],
                 interval: float = 0.02,
                 duration: Optional[float] = None) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.env = env
        self.fabric = fabric
        if callable(flows):
            self._flow_source = flows
        else:
            frozen = list(flows)
            self._flow_source = lambda: frozen
        self.interval = float(interval)
        self.duration = duration
        self.series = ProbeSeries(interval=self.interval)
        self._seen: dict[int, float] = {}
        self.process = env.process(self._run(), name="throughput-probe")

    def _observed_total(self) -> float:
        """Cumulative bytes across all flows ever observed.

        Finished flows keep contributing their final byte counts via the
        ``_seen`` ledger so totals never regress.
        """
        total = 0.0
        for flow in self._flow_source():
            self._seen[flow.id] = flow.transferred
        total = sum(self._seen.values())
        return total

    def _run(self):
        last_total = self._observed_total()
        elapsed = 0.0
        try:
            while self.duration is None or elapsed < self.duration - 1e-12:
                yield self.env.timeout(self.interval)
                elapsed += self.interval
                self.fabric.sync_now()
                total = self._observed_total()
                self.series.samples.append(
                    ProbeSample(time=self.env.now, bytes=total - last_total))
                last_total = total
        except Interrupt:
            pass
        return self.series

    def stop(self) -> ProbeSeries:
        """Stop sampling early and return the collected series."""
        if self.process.is_alive:
            self.process.interrupt("probe-stop")
        return self.series
