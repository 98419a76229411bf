"""Tail-based trace sampling: decide retention when the trace is done.

Head sampling (flip a coin at trace start) throws away exactly the
traces you want during an incident — the slow ones, the errored ones,
the ones a chaos fault touched — because the coin is flipped before
anything interesting has happened. The :class:`TailSampler` instead
buffers a lightweight digest per open trace and decides at *completion*:

* always keep traces slower than ``slow_threshold_s``;
* always keep traces that errored;
* always keep traces a chaos fault touched (shard failure, straggler,
  throttle — marked by the replay/chaos integration);
* keep a seeded, deterministic ``baseline_rate`` slice of everything
  else so the healthy population stays represented.

The baseline decision hashes the trace's completion sequence number
with a Knuth multiplicative constant — **never** Python's randomized
``hash()`` and **never** the simulation's RNG streams, so sampling can
neither vary across processes nor perturb the run it observes.

Conservation is an invariant, not a hope: every trace that begins is
eventually accounted as kept (with a reason) or dropped, and
:meth:`TailSampler.check_conservation` proves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Knuth's multiplicative hash constant (golden ratio * 2^32).
_KNUTH = 2654435761
_HASH_SPACE = float(2 ** 32)

#: Retention reasons, in precedence order.
REASON_ERROR = "error"
REASON_FAULT = "fault"
REASON_SLOW = "slow"
REASON_BASELINE = "baseline"


def baseline_keep(seq: int, seed: int, rate: float) -> bool:
    """Deterministic keep/drop for the baseline slice.

    Maps ``(seq, seed)`` to [0, 1) via an integer multiplicative hash;
    stable across processes and platforms, independent of every
    simulation RNG stream.
    """
    u = ((seq * _KNUTH + seed * 0x9E3779B1 + 0x7F4A7C15)
         & 0xFFFFFFFF) / _HASH_SPACE
    return u < rate


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


@dataclass
class TraceDigest:
    """The per-open-trace state the sampler buffers.

    Deliberately tiny — a handful of scalars, not the spans themselves
    (the flight recorder owns span retention) — so a million open
    traces cost megabytes, not gigabytes.
    """

    trace_id: str
    started_at: float
    scope: str = ""
    error: bool = False
    fault_touched: bool = False
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    """One completed trace's retention decision."""

    trace_id: str
    kept: bool
    reason: str | None
    latency_s: float
    scope: str


class TailSampler:
    """Buffers open traces; rules on them when they complete."""

    def __init__(self, config: SamplerConfig | None = None) -> None:
        self.config = config or SamplerConfig()
        self._open: dict[str, TraceDigest] = {}
        #: Completion counter — the baseline hash input and the
        #: denominator of the conservation equation.
        self.completed = 0
        self.kept_error = 0
        self.kept_fault = 0
        self.kept_slow = 0
        self.kept_baseline = 0
        self.dropped = 0
        #: Trace ids retained, in completion order (bounded by caller
        #: usage: replays retain few traces; engine runs are small).
        self.kept_ids: list[str] = []
        self.kept_reasons: dict[str, str] = {}

    # -- trace lifecycle ---------------------------------------------------

    def begin(self, trace_id: str, at: float, scope: str = "") -> None:
        """Open a trace digest (idempotent for an already-open id)."""
        if trace_id not in self._open:
            self._open[trace_id] = TraceDigest(
                trace_id=trace_id, started_at=at, scope=scope)

    def mark_error(self, trace_id: str) -> None:
        digest = self._open.get(trace_id)
        if digest is not None:
            digest.error = True

    def mark_fault(self, trace_id: str) -> None:
        digest = self._open.get(trace_id)
        if digest is not None:
            digest.fault_touched = True

    def observe(self, latency_s: float, *, error: bool = False,
                fault: bool = False) -> str | None:
        """Fast-path verdict for a trace completing *now*, unbuffered.

        The replay hot path knows everything at completion time
        (latency from the request, fault-touched from the rescue flag),
        so it skips the open-trace table — no digest allocation, no
        dict churn, and the trace-id string is only built for kept
        traces. Returns the retention reason, or ``None`` for dropped;
        a kept trace **must** then be registered via
        :meth:`register_kept` or conservation fails by construction.
        """
        seq = self.completed
        self.completed += 1
        if error:
            self.kept_error += 1
            return REASON_ERROR
        if fault:
            self.kept_fault += 1
            return REASON_FAULT
        if latency_s >= self.config.slow_threshold_s:
            self.kept_slow += 1
            return REASON_SLOW
        if baseline_keep(seq, self.config.seed, self.config.baseline_rate):
            self.kept_baseline += 1
            return REASON_BASELINE
        self.dropped += 1
        return None

    def register_kept(self, trace_id: str, reason: str) -> None:
        """File a kept trace's id (the slow half of the fast path)."""
        self.kept_ids.append(trace_id)
        self.kept_reasons[trace_id] = reason

    def complete(self, trace_id: str, at: float) -> Verdict:
        """Close a trace and rule on retention.

        Completing an id that was never begun still produces a (dropped
        or baseline-kept) verdict so conservation holds even for traces
        whose begin the integration missed.
        """
        digest = self._open.pop(trace_id, None)
        if digest is None:
            digest = TraceDigest(trace_id=trace_id, started_at=at)
        latency = at - digest.started_at
        reason = self.observe(latency, error=digest.error,
                              fault=digest.fault_touched)
        kept = reason is not None
        if kept:
            self.register_kept(trace_id, reason)
        return Verdict(trace_id=trace_id, kept=kept, reason=reason,
                       latency_s=latency, scope=digest.scope)

    # -- views -------------------------------------------------------------

    @property
    def kept(self) -> int:
        return (self.kept_error + self.kept_fault + self.kept_slow
                + self.kept_baseline)

    @property
    def open_traces(self) -> int:
        return len(self._open)

    def check_conservation(self) -> bool:
        """Every completed trace is kept (once, with a reason) or dropped."""
        return (self.completed == self.kept + self.dropped
                and len(self.kept_ids) == self.kept)

    def summary(self) -> dict:
        """JSON-ready sampling report (stable keys)."""
        return {
            "completed": self.completed,
            "kept": self.kept,
            "dropped": self.dropped,
            "open": self.open_traces,
            "kept_by_reason": {
                REASON_ERROR: self.kept_error,
                REASON_FAULT: self.kept_fault,
                REASON_SLOW: self.kept_slow,
                REASON_BASELINE: self.kept_baseline,
            },
            "config": {
                "slow_threshold_s": self.config.slow_threshold_s,
                "baseline_rate": self.config.baseline_rate,
                "seed": self.config.seed,
            },
            "conserved": self.check_conservation(),
        }
