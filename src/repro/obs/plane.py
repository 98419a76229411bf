"""The observability plane: one observer object wired into a replay.

:class:`ReplayObsPlane` implements the observer protocol
:func:`repro.shard.replay.run_replay` accepts (``on_completion`` /
``on_control_tick`` / ``on_shard_failure`` / ``on_fault`` /
``on_end``) and fans each callback out to the three obs subsystems:
the :class:`~repro.obs.slo.SLOEngine` (per-shard + fleet scopes), the
:class:`~repro.obs.sampler.TailSampler` (retention tallies of the
requests the replay's interest filter keeps), and the
:class:`~repro.obs.flight.FlightRecorder` (notes for sheds, failures,
faults, alerts; incident bundles when an alert fires).

The plane is strictly read-only with respect to the run it observes:
it never advances the clock, never draws from a simulation RNG stream,
and never mutates router/gateway state — a replay with a plane
attached produces the byte-identical :class:`ReplayResult` digest of a
bare replay (the neutrality property test pins this).

Per-event cost for the (dominant) dropped-trace path is three inline
scalar checks in the replay's completion loop — no Python call: the
plane exposes a :attr:`~ReplayObsPlane.completion_interest` spec that
``run_replay`` evaluates itself, so ``on_completion`` only ever fires
for kept traces (the trace-id-hash pre-filter a production collector's
head sampler applies before the tail pipeline ever sees a span). SLO
accounting costs *nothing* per event: the shard
gateways already maintain the counters the engine needs (``completed``
/ ``within_slo`` / ``shed`` / ``failed`` on each shard's
:class:`~repro.serve.metrics.ServingTally`), so the plane scrapes
counter deltas at control ticks — the same model a production
burn-rate alerter uses over scraped counter time series. Goodness is
therefore defined by the replay's own ``slo_latency_s`` bound (what
``within_slo`` counts); the ``latency_s`` that the SLO report states
classifies nothing.
"""

from __future__ import annotations

from repro.obs.flight import FlightRecorder
from repro.obs.sampler import (
    COMPLETION_INTEREST,
    REASON_BASELINE,
    REASON_FAULT,
    REASON_SLOW,
    TailSampler,
)
from repro.obs.slo import SLOEngine

#: The fleet-wide roll-up scope every event also lands in.
FLEET_SCOPE = "fleet"
#: Cap on incident bundles per run (an alert storm must not turn the
#: observer into the memory hog it exists to debug).
MAX_INCIDENTS = 8


def shard_scope(shard: str) -> str:
    return f"shard:{shard}"


class ReplayObsPlane:
    """Observer wired into a sharded-serving replay."""

    def __init__(self, run_config: dict | None = None) -> None:
        #: JSON-ready description of the run, embedded in bundles.
        self.run_config = run_config or {}
        self.engine = SLOEngine()
        self.sampler = TailSampler()
        self.flight = FlightRecorder()
        #: (shed, failed, completed, within_slo) counters already
        #: folded into the SLO windows, per shard.
        self._seen: dict[str, tuple[int, int, int, int]] = {}
        self.fleet_snapshot: dict = {}
        #: The interest spec ``run_replay`` inlines into its completion
        #: loop: a completion is delivered to ``on_completion`` iff it
        #: is slow, rescued from a failed shard, or falls in the seeded
        #: baseline hash slice of request ids — so the per-event cost
        #: of every *dropped* trace is three scalar checks with no
        #: Python call, and every delivered completion is kept by
        #: construction. Totals are reconstructed from the shard
        #: counters scraped at control ticks.
        self.completion_interest = COMPLETION_INTEREST
        self.on_completion = self._make_on_completion()

    # -- replay observer protocol ------------------------------------------

    def _make_on_completion(self):
        """Build the hot-path completion hook and its sync-back hook.

        The hook only classifies — it relies on the caller honouring
        :attr:`completion_interest`, so everything it receives is a
        kept trace (precedence: fault > slow > baseline, as
        :mod:`repro.obs.sampler` states the rule). ``completed`` and
        ``dropped`` are not counted here at all; the control-tick
        scrape derives them from the shard counters.
        """
        sampler = self.sampler
        slow_threshold = COMPLETION_INTEREST[0]
        fault_reason, slow_reason = REASON_FAULT, REASON_SLOW
        baseline_reason = REASON_BASELINE
        rings = self.flight._rings
        ring_factory = self.flight._new_ring
        kept_append = sampler.kept_ids.append
        kept_reasons = sampler.kept_reasons
        kept_fault = kept_slow = kept_baseline = 0

        def on_completion(t: float, shard: str, request) -> None:
            """One *interesting* request finished on ``shard`` at ``t``."""
            nonlocal kept_fault, kept_slow, kept_baseline
            latency = t - request.submitted_at
            if request.rescued:
                kept_fault += 1
                reason = fault_reason
            elif latency >= slow_threshold:
                kept_slow += 1
                reason = slow_reason
            else:
                # Pre-filtered delivery: not slow, not rescued — in the
                # baseline hash slice by construction.
                kept_baseline += 1
                reason = baseline_reason
            trace_id = f"q{request.seq}"
            kept_append(trace_id)
            kept_reasons[trace_id] = reason
            if reason is not baseline_reason:
                # Only interesting traces earn a ring note; noting the
                # baseline slice would evict them during load spikes.
                # (FlightRecorder.note, inlined: the entry dict is
                # built once, no kwargs repack, floats left raw —
                # dump_incident round_floats the whole bundle anyway.)
                ring = rings.get(shard)
                if ring is None:
                    ring = rings[shard] = ring_factory()
                ring.append({"t": t, "kind": "trace-kept",
                             "trace": trace_id, "reason": reason,
                             "latency_s": latency})

        def sync() -> int:
            """Write kept counts back; returns the kept total."""
            sampler.kept_fault = kept_fault
            sampler.kept_slow = kept_slow
            sampler.kept_baseline = kept_baseline
            return kept_fault + kept_slow + kept_baseline

        self._sync_sampler = sync
        return on_completion

    def on_control_tick(self, t: float, router) -> None:
        """Scrape counter deltas, evaluate burn rules, dump incidents.

        Good events are the delta of ``within_slo``; budget-spending
        events are over-latency completions plus sheds plus failures —
        exactly the serving outcomes the roll-up reconciles, so the SLO
        windows and the fleet report can never disagree on totals. The
        sampler's ``completed``/``dropped`` totals come from the same
        scrape: the replay's interest pre-filter means the plane never
        sees dropped completions, so they are reconstructed here as
        *all completions minus kept*.
        """
        kept_total = self._sync_sampler()
        engine = self.engine
        total_completed = 0
        for shard in sorted(router.shard_metrics):
            metrics = router.shard_metrics[shard]
            shed, failed = metrics.shed, metrics.failed
            completed, within = metrics.completed, metrics.within_slo
            total_completed += completed
            seen_shed, seen_failed, seen_completed, seen_within = \
                self._seen.get(shard, (0, 0, 0, 0))
            d_shed = shed - seen_shed
            d_failed = failed - seen_failed
            d_good = within - seen_within
            d_slow = (completed - seen_completed) - d_good
            bad = d_shed + d_failed + d_slow
            if d_good or bad:
                scope = shard_scope(shard)
                engine.record(t, scope, True, count=d_good)
                engine.record(t, FLEET_SCOPE, True, count=d_good)
                engine.record(t, scope, False, count=bad)
                engine.record(t, FLEET_SCOPE, False, count=bad)
            if bad:
                self.flight.note(shard, t, "bad-delta", shed=d_shed,
                                 failed=d_failed, slow=d_slow)
            self._seen[shard] = (shed, failed, completed, within)
        sampler = self.sampler
        sampler.completed = total_completed
        sampler.dropped = total_completed - kept_total
        for alert in engine.evaluate(t):
            self._on_alert(t, alert, router)

    def on_shard_failure(self, t: float, shard: str, orphans: int) -> None:
        self.flight.note(shard, t, "shard-failure", orphans=orphans)

    def on_fault(self, t: float, kind: str, target: str,
                 detail: str) -> None:
        """Chaos-injector hook: a fault struck ``target``."""
        note = {"fault": kind}
        if detail:
            note["detail"] = detail
        self.flight.note(target or FLEET_SCOPE, t, "fault", **note)

    def on_end(self, t: float, router) -> None:
        """Final evaluation + fleet snapshot at end of trace."""
        self.on_control_tick(t, router)
        self.fleet_snapshot = router.roll_up()

    # -- incident handling -------------------------------------------------

    def _on_alert(self, t: float, alert, router) -> None:
        scope = alert.scope
        shard = scope.split(":", 1)[1] if scope.startswith("shard:") \
            else None
        self.flight.note(shard or FLEET_SCOPE, t, "alert",
                         rule=alert.rule, scope=scope,
                         long_burn=round(alert.long_burn, 9),
                         short_burn=round(alert.short_burn, 9))
        if len(self.flight.incidents) >= MAX_INCIDENTS:
            return
        recent_kept = self.sampler.kept_ids[-16:]
        self.flight.dump_incident(
            at=t,
            trigger=alert.to_dict(),
            shards=None if shard is None else [shard],
            metrics=router.roll_up(),
            traces={
                "recent_kept": recent_kept,
                "reasons": {trace: self.sampler.kept_reasons[trace]
                            for trace in recent_kept},
                "sampling": self.sampler.summary(),
            },
            config=self.run_config)

    # -- views -------------------------------------------------------------

    def slo_report(self, now: float) -> dict:
        return self.engine.report(now)
