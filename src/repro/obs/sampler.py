"""Tail-based trace sampling: decide retention when the trace is done.

Head sampling flips its coin before anything interesting has happened;
tail sampling decides at *completion*. A served request is kept as
``fault`` if it was rescued from a failed shard, else ``slow`` if its
latency reached :data:`SLOW_THRESHOLD_S`, else ``baseline`` if its
gateway sequence number falls in a salted Knuth-hash slice of
:data:`BASELINE_RATE` (never Python's ``hash()``, never a simulation
RNG stream, so sampling neither varies across processes nor perturbs
the run). The replay evaluates the rule, given the spec
:data:`COMPLETION_INTEREST`, in three places:
:func:`repro.shard.replay._complete`, and two copies inlined in the
replay lane (``_run_lane``), one in its scalar drain and one as arrays
over a block. :class:`TailSampler` holds the tallies the
plane writes and :meth:`~TailSampler.check_conservation` reads.
"""

from __future__ import annotations

#: Retention reasons, in precedence order.
REASON_FAULT = "fault"
REASON_SLOW = "slow"
REASON_BASELINE = "baseline"

#: A completion at least this slow is kept as ``slow``.
SLOW_THRESHOLD_S = 2.0
#: The share of the remaining completions kept as ``baseline``.
BASELINE_RATE = 0.05
#: ``(slow_threshold_s, salt, cut)``: a completion is kept iff rescued,
#: slower than the threshold, or
#: ``(seq * 2654435761 + salt) mod 2**32 < cut``, where
#: ``cut = floor(BASELINE_RATE * 2**32)``.
COMPLETION_INTEREST = (SLOW_THRESHOLD_S, 0x7F4A7C15,
                       int(BASELINE_RATE * 2 ** 32))


class TailSampler:
    """Retention tallies of one observed run."""

    def __init__(self) -> None:
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
            "config": {"slow_threshold_s": SLOW_THRESHOLD_S,
                       "baseline_rate": BASELINE_RATE, "seed": 0},
            "conserved": self.check_conservation(),
        }
