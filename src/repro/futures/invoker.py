"""The invoker: bounded, fault-tolerant dispatch of futures calls.

The executor hands every :class:`~repro.futures.future.ResponseFuture`
to one shared :class:`Invoker`, which drives it to a terminal state:

* **bounded in-flight concurrency** — a :class:`~repro.sim.resources.
  Resource` of ``max_inflight`` slots queues dispatches FIFO, so a
  50 000-call ``map`` cannot stampede the platform's admission layer;
* **seeded-deterministic retries** — attempts run *supervised* (errors
  captured, never propagated raw into the kernel) and transient failures
  (``error.retryable``) are retried with jittered exponential backoff
  drawn from a named RNG stream, under a per-executor retry budget;
* **speculative re-invocation** — an opt-in straggler poller requests a
  duplicate attempt for calls running far beyond the completed median,
  the Lambada/Starling recipe the query coordinator also uses. Losing
  duplicates become *zombies*: they run (and bill) to completion and are
  drained by ``executor.drain()``.

Every platform invocation — primary, retry, or duplicate — bills an
:class:`~repro.futures.future.AttemptRecord` onto its future, so the sum
of per-future costs reproduces the pricing-catalog total.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.futures.future import AttemptRecord, ResponseFuture, attempt_cost_usd
from repro.sim import AnyOf, Resource
from repro.telemetry import get_recorder

#: Per-call dispatch overhead on the coordinating process (seconds) —
#: same serialization cost the query coordinator pays per fragment.
INVOKE_DISPATCH_S = 0.003


@dataclass(frozen=True)
class InvokerConfig:
    """Dispatch, retry, and speculation knobs of one executor."""

    #: Calls allowed in flight at once; further dispatches queue FIFO.
    max_inflight: int = 64
    #: Total tries per call (1 = no retries).
    max_attempts: int = 3
    #: Retries allowed across the whole executor.
    retry_budget: int = 128
    backoff_base_s: float = 0.1
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 5.0
    #: Uniform jitter fraction applied to each backoff delay.
    backoff_jitter: float = 0.5
    #: Speculative re-invocation of stragglers. Off by default — it
    #: reacts to natural timing variance too, perturbing clean runs.
    speculate: bool = False
    #: A call is duplicated once it runs ``spec_factor`` x the median
    #: elapsed time of completed calls in its job.
    spec_factor: float = 3.0
    #: Fraction of the job that must be done before speculating.
    spec_quorum: float = 0.5
    #: Speculative launches allowed across the whole executor.
    spec_budget: int = 4
    #: Never duplicate a call that has run less than this.
    spec_min_wait_s: float = 0.5
    #: Straggler-scan interval while a job is in flight.
    spec_poll_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {self.max_inflight}")
        if self.max_attempts <= 0:
            raise ValueError(
                f"max_attempts must be positive, got {self.max_attempts}")


class Invoker:
    """Drives futures through the platform with retries and speculation."""

    def __init__(self, env, platform, function, config: InvokerConfig,
                 jitter_rng) -> None:
        self.env = env
        self.platform = platform
        #: The deployed :class:`~repro.faas.function.FunctionConfig`;
        #: its memory/ephemeral sizing prices every attempt.
        self.function = function
        self.config = config
        self._jitter = jitter_rng
        self._slots = Resource(env, capacity=config.max_inflight)
        self.retries = 0
        self.failed_attempts = 0
        self.speculations = 0
        self.spec_wins = 0
        self.inflight_peak = 0
        #: Abandoned duplicate attempts still running; they bill to
        #: completion and are awaited by :meth:`drain`.
        self.zombies: list = []
        self.zombies_drained = 0

    @property
    def inflight(self) -> int:
        """Calls currently holding a dispatch slot."""
        return self._slots.count

    def summary(self) -> dict:
        """JSON-ready dispatch statistics."""
        return {
            "retries": self.retries,
            "failed_attempts": self.failed_attempts,
            "speculations": self.speculations,
            "spec_wins": self.spec_wins,
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
        cfg = self.config
        with self._slots.request() as slot:
            yield slot
            self.inflight_peak = max(self.inflight_peak, self._slots.count)
            yield self.env.timeout(INVOKE_DISPATCH_S)
            future.mark_running(self.env.now)
            recorder = get_recorder()
            span = None
            if recorder.enabled:
                span = recorder.start_span(
                    f"dispatch {future.call_id}", self.env.now, parent=parent,
                    category="futures", attrs={"call_id": future.call_id})
            #: (process, attempt_no, is_duplicate) of live attempts.
            active = [(self._launch(future, fn, 0, False, span, 0.0), 0,
                       False)]
            attempts = 1
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
                    if not future.hedged \
                            and self.speculations < cfg.spec_budget:
                        future.hedged = True
                        self.speculations += 1
                        self._note("futures.speculate", future,
                                   attempt=attempts)
                        active.append((
                            self._launch(future, fn, attempts, True, span,
                                         0.0),
                            attempts, True))
                        attempts += 1
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
                            self.spec_wins += 1
                            self._note("futures.speculate_win", future,
                                       attempt=attempt_no)
                        # Siblings still in flight become zombies: they
                        # run (and bill) unobserved until drain().
                        self.zombies.extend(
                            entry[0] for entry in active)
                        active = []
                        future.resolve(value)
                    elif self._retryable(value, attempts):
                        self.failed_attempts += 1
                        self.retries += 1
                        delay = self._backoff_delay(attempts)
                        self._note("futures.retry", future, attempt=attempts,
                                   backoff_s=delay,
                                   cause=type(value).__name__)
                        active.append((
                            self._launch(future, fn, attempts, False, span,
                                         delay),
                            attempts, False))
                        attempts += 1
                    else:
                        self.failed_attempts += 1
                        if not active:
                            future.reject(value)
            if span is not None:
                span.finish(self.env.now, state=future.state,
                            attempts=len(future.attempts))
            return future

    def _retryable(self, error: BaseException, attempts: int) -> bool:
        cfg = self.config
        return (getattr(error, "retryable", False)
                and attempts < cfg.max_attempts
                and self.retries < cfg.retry_budget)

    def _backoff_delay(self, attempt: int) -> float:
        """Jittered exponential backoff before retry number ``attempt``."""
        cfg = self.config
        delay = min(cfg.backoff_cap_s,
                    cfg.backoff_base_s
                    * cfg.backoff_multiplier ** (attempt - 1))
        if cfg.backoff_jitter > 0:
            delay *= 1.0 + cfg.backoff_jitter * (
                2.0 * float(self._jitter.random()) - 1.0)
        return delay

    def _note(self, name: str, future: ResponseFuture, **attrs) -> None:
        recorder = get_recorder()
        if recorder.enabled:
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

        Once a quorum of the job has completed, any call running
        ``spec_factor`` x the completed median (and at least
        ``spec_min_wait_s``) gets a duplicate request, delivered to its
        drive loop through the future's wake event. Ends when the job
        (or the speculation budget) is exhausted.
        """
        cfg = self.config
        while True:
            open_calls = [f for f in futures if not f.done]
            if not open_calls or self.speculations >= cfg.spec_budget:
                return
            done = [f for f in futures
                    if f.done and f.dispatched_at is not None]
            if len(done) >= cfg.spec_quorum * len(futures) and done:
                durations = sorted(f.finished_at - f.dispatched_at
                                   for f in done)
                median = durations[len(durations) // 2]
                threshold = max(cfg.spec_min_wait_s,
                                cfg.spec_factor * median)
                for future in open_calls:
                    if future.hedged or future._spec_requested \
                            or future.dispatched_at is None:
                        continue
                    if self.env.now - future.dispatched_at >= threshold:
                        future._spec_requested = True
                        if future._wake is not None \
                                and not future._wake.triggered:
                            future._wake.succeed()
            yield self.env.timeout(cfg.spec_poll_s)

    # -- zombie draining -------------------------------------------------------

    def drain(self):
        """Process: await every abandoned duplicate still in flight.

        Run this before reading platform-level cost totals — zombies
        bill on completion, and a cost audit taken while one is running
        would be short.
        """
        while self.zombies:
            zombie = self.zombies.pop(0)
            yield zombie
            self.zombies_drained += 1
        return self.zombies_drained
