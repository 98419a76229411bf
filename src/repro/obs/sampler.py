"""Tail-based trace sampling: decide retention when the trace is done.

Head sampling flips its coin before anything interesting has happened;
tail sampling decides at *completion*. A served request is kept as
``fault`` if it was rescued from a failed shard, else ``slow`` if its
latency reached ``slow_threshold_s``, else ``baseline`` if its gateway
sequence number falls in a seeded Knuth-hash slice of ``baseline_rate``
(never Python's ``hash()``, never a simulation RNG stream, so sampling
neither varies across processes nor perturbs the run). The replay
evaluates the rule, given the spec :attr:`SamplerConfig.interest`, in
three places: :func:`repro.shard.replay._complete`, and two copies
inlined in the replay lane (``_run_lane``), one in its scalar drain and
one as arrays over a block. :class:`TailSampler` holds the tallies the
plane writes and :meth:`~TailSampler.check_conservation` reads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: Retention reasons, in precedence order.
REASON_FAULT = "fault"
REASON_SLOW = "slow"
REASON_BASELINE = "baseline"


@dataclass(frozen=True)
class SamplerConfig:
    """Retention policy knobs."""

    slow_threshold_s: float = 2.0
    baseline_rate: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.slow_threshold_s <= 0:
            raise ValueError("slow threshold must be positive")
        if not 0.0 <= self.baseline_rate <= 1.0:
            raise ValueError("baseline rate must be in [0, 1]")

    @property
    def interest(self) -> tuple[float, int, int]:
        """``(slow_threshold_s, salt, cut)``: a completion is kept iff
        rescued, slower than the threshold, or
        ``(seq * 2654435761 + salt) mod 2**32 < cut``."""
        return (self.slow_threshold_s,
                self.seed * 0x9E3779B1 + 0x7F4A7C15,
                int(self.baseline_rate * 2 ** 32))


class TailSampler:
    """Retention tallies of one observed run."""

    def __init__(self, config: SamplerConfig | None = None) -> None:
        self.config = config or SamplerConfig()
        self.completed = 0
        self.kept_fault = 0
        self.kept_slow = 0
        self.kept_baseline = 0
        self.dropped = 0
        #: Trace ids retained, in completion order.
        self.kept_ids: list[str] = []
        self.kept_reasons: dict[str, str] = {}

    @property
    def kept(self) -> int:
        return self.kept_fault + self.kept_slow + self.kept_baseline

    def check_conservation(self) -> bool:
        """Every completed trace is kept (once, with a reason) or dropped."""
        return (self.completed == self.kept + self.dropped
                and len(self.kept_ids) == self.kept)

    def summary(self) -> dict:
        """JSON-ready report; ``open`` and ``error`` stay 0 (traces are
        ruled on at completion; the replay has no errored outcome)."""
        return {
            "completed": self.completed,
            "kept": self.kept,
            "dropped": self.dropped,
            "open": 0,
            "kept_by_reason": {
                "error": 0,
                REASON_FAULT: self.kept_fault,
                REASON_SLOW: self.kept_slow,
                REASON_BASELINE: self.kept_baseline,
            },
            "config": asdict(self.config),
            "conserved": self.check_conservation(),
        }
