"""The invoker: bounded, supervised dispatch of futures calls.

The executor hands every :class:`~repro.futures.future.ResponseFuture`
to one shared :class:`Invoker`. It queues dispatches FIFO behind
:data:`MAX_INFLIGHT` slots, so a 50 000-call ``map`` cannot stampede the
platform's admission layer, and settles every attempt by the policy of
:mod:`repro.faas.supervisor` that the query coordinator uses too:
retries with jitter from the ``futures.backoff`` stream and, with
hedging on, duplicates requested by a per-job straggler poller. Every
invocation (primary, retry or duplicate) bills an
:class:`~repro.futures.future.AttemptRecord` onto its future, so the
per-future costs sum to the pricing-catalog total.
"""

from __future__ import annotations

from repro.faas import supervisor
from repro.faas.supervisor import (
    EXECUTOR_RETRY_BUDGET,
    INVOKE_DISPATCH_S,
    Supervisor,
    hedge_candidates,
)
from repro.futures.future import AttemptRecord, ResponseFuture, attempt_cost_usd
from repro.sim import AnyOf, Resource
from repro.telemetry import get_recorder


#: Calls allowed in flight at once; further dispatches queue FIFO.
MAX_INFLIGHT = 64


class Invoker(Supervisor):
    """Drives futures through the platform with retries and speculation.

    At most :data:`MAX_INFLIGHT` calls are dispatched at once, and the
    executor's ``recovery`` policy settles every attempt.
    """

    def __init__(self, env, platform, function, recovery,
                 jitter_rng) -> None:
        super().__init__(recovery, jitter_rng, EXECUTOR_RETRY_BUDGET)
        self.env = env
        self.platform = platform
        #: The deployed :class:`~repro.faas.function.FunctionConfig`;
        #: its memory/ephemeral sizing prices every attempt.
        self.function = function
        self._slots = Resource(env, capacity=MAX_INFLIGHT)
        self.inflight_peak = 0

    def summary(self) -> dict:
        """JSON-ready dispatch statistics."""
        return {
            "retries": self.retries,
            "failed_attempts": self.failed_attempts,
            "speculations": self.hedges,
            "spec_wins": self.hedge_wins,
            "zombies_drained": self.zombies_drained,
            "inflight_peak": self.inflight_peak,
        }

    # -- dispatch --------------------------------------------------------------

    def submit(self, future: ResponseFuture, fn, parent=None):
        """Start driving ``future``; returns the drive process."""
        return self.env.process(self._drive(future, fn, parent),
                                name=f"drive-{future.call_id}")

    def _drive(self, future: ResponseFuture, fn, parent):
        """Process: take a slot, dispatch, and retry/speculate to done."""
        with self._slots.request() as slot:
            yield slot
            self.inflight_peak = max(self.inflight_peak, self._slots.count)
            yield self.env.timeout(INVOKE_DISPATCH_S)
            future.mark_running(self.env.now)
            recorder = get_recorder()
            span = None
            if recorder is not None:
                span = recorder.start_span(
                    f"dispatch {future.call_id}", self.env.now, parent=parent,
                    category="futures", attrs={"call_id": future.call_id})
            #: (process, attempt_no, is_duplicate) of live attempts.
            active = [(self._launch(future, fn, 0, False, span, 0.0), 0,
                       False)]
            attempts = 1  # primary + retries; duplicates do not count
            while not future.done:
                future._wake = wake = self.env.event()
                yield AnyOf(self.env,
                            [process for process, _, _ in active] + [wake])
                if not wake.triggered:
                    # A decided race stays hooked on its pending plain
                    # events for a late failure; wake has none, and left
                    # hooked the two are a cycle only the collector frees.
                    wake.callbacks.clear()
                if future._spec_requested:
                    future._spec_requested = False
                    if not future.hedged and self.take_hedge():
                        future.hedged = True
                        self._note("futures.speculate", future,
                                   attempt=attempts)
                        active.append((
                            self._launch(future, fn, attempts, True, span,
                                         0.0),
                            attempts, True))
                finished = [entry for entry in active if entry[0].processed]
                if not finished:
                    continue
                active = [entry for entry in active
                          if not entry[0].processed]
                for process, attempt_no, is_duplicate in finished:
                    ok, value = process.value
                    if future.done:
                        continue  # late sibling; already billed, ignored
                    if ok:
                        if is_duplicate:
                            self._note("futures.speculate_win", future,
                                       attempt=attempt_no)
                        # Siblings still in flight become zombies: they
                        # run (and bill) unobserved until drain().
                        self.won(is_duplicate,
                                 [entry[0] for entry in active])
                        active = []
                        future.resolve(value)
                        continue
                    delay = self.retry_delay(value, attempts)
                    if delay is not None:
                        self._note("futures.retry", future, attempt=attempts,
                                   backoff_s=delay,
                                   cause=type(value).__name__)
                        active.append((
                            self._launch(future, fn, attempts, False, span,
                                         delay),
                            attempts, False))
                        attempts += 1
                    elif not active:
                        # A give-up waits for any sibling still running.
                        future.reject(value)
            if span is not None:
                span.finish(self.env.now, state=future.state,
                            attempts=len(future.attempts))
            return future

    def _note(self, name: str, future: ResponseFuture, **attrs) -> None:
        recorder = get_recorder()
        if recorder is not None:
            recorder.event(self.env.now, name, category="futures",
                           job=future.job_id, call_id=future.call_id,
                           **attrs)

    # -- one supervised attempt ------------------------------------------------

    def _launch(self, future: ResponseFuture, fn, attempt: int,
                hedged: bool, span, delay: float):
        payload = {
            "fn": fn,
            "data": future.data,
            "job_id": future.job_id,
            "call_id": future.call_id,
            "attempt": attempt,
            "hedged": hedged,
        }
        if span is not None:
            payload["trace"] = span
        return self.env.process(self._attempt(future, payload, delay),
                                name=f"attempt-{future.call_id}-{attempt}")

    def _attempt(self, future: ResponseFuture, payload: dict, delay: float):
        """Process: back off, invoke once, bill the attempt, never fail.

        Returns ``(True, response)`` or ``(False, error)`` — platform
        and handler errors alike are captured into the result, so
        concurrent attempts cannot crash the kernel with an unwatched
        failure.
        """
        if delay > 0:
            yield self.env.timeout(delay)
        try:
            record = yield from self.platform.invoke_async(
                self.function.name, payload)
        except BaseException as exc:  # noqa: BLE001 - captured for the driver
            return (False, exc)
        future.attempts.append(AttemptRecord(
            attempt=payload["attempt"], hedged=payload["hedged"],
            requested_at=record.requested_at, started_at=record.started_at,
            finished_at=record.finished_at, cold=record.cold,
            ok=record.error is None,
            error_type=(type(record.error).__name__
                        if record.error is not None else None),
            cost_usd=attempt_cost_usd(record, self.function.memory_bytes,
                                      self.function.ephemeral_bytes)))
        if record.error is not None:
            return (False, record.error)
        return (True, record.response)

    # -- speculation -----------------------------------------------------------

    def speculate(self, futures: list):
        """Process: scan a job for stragglers, requesting duplicates.

        Every ``STRAGGLER_POLL_S`` the job goes through the supervisor's
        straggler rule; each call it names gets a duplicate request,
        delivered to its drive loop through the future's wake event.
        Ends when the job (or the hedge budget) is exhausted.
        """
        while True:
            if all(f.done for f in futures) or not self.may_hedge:
                return
            now = self.env.now
            durations = [f.finished_at - f.dispatched_at for f in futures
                         if f.done and f.dispatched_at is not None]
            elapsed = {index: now - f.dispatched_at
                       for index, f in enumerate(futures)
                       if not f.done and not f.hedged
                       and not f._spec_requested
                       and f.dispatched_at is not None}
            for index in hedge_candidates(elapsed, durations, len(futures)):
                future = futures[index]
                future._spec_requested = True
                if future._wake is not None and not future._wake.triggered:
                    future._wake.succeed()
            yield self.env.timeout(supervisor.STRAGGLER_POLL_S)
