"""The FunctionExecutor: Lithops-style futures API over the platform.

The executor is the entry point of the subsystem::

    executor = FunctionExecutor(env, platform, rng)

    def scenario(env):
        futures = executor.map(word_count, chunks)
        done, pending = yield from executor.wait(futures)
        reduce_future = executor.map_reduce(word_count, chunks, merge_counts)
        result = yield from executor.get_result(reduce_future)

Every ``map`` / ``map_reduce`` creates a *job*: a batch
of :class:`~repro.futures.future.ResponseFuture` objects sharing one
:class:`~repro.futures.monitor.JobMonitor` and one telemetry trace, so
spans nest job → dispatch → invoke → fn in ``repro trace`` output. A
single shared :class:`~repro.futures.invoker.Invoker` drives all jobs,
which is what makes :data:`~repro.futures.invoker.MAX_INFLIGHT` an
executor-wide bound rather than a per-job one.

The executor deploys one worker function and ships the user's ``fn``
inside the payload — the simulation analogue of lithops' generic runtime
worker that unpickles and runs the shipped callable. ``fn(context,
data)`` may be a plain callable or a generator (yielding simulation
events for storage I/O and compute time).
"""

from __future__ import annotations

from typing import Any

from repro import units
from repro.faas.function import FunctionConfig
from repro.faas.supervisor import RecoveryPolicy
from repro.futures.future import ResponseFuture
from repro.futures.invoker import Invoker
from repro.futures.monitor import JobMonitor
from repro.pricing.calculator import CostCalculator
from repro.sim import AllOf
from repro.telemetry import get_recorder

#: The one worker function every executor deploys, and its sizing.
FUNCTION_NAME = "futures-worker"
WORKER_MEMORY = 1_769 * units.MiB
WORKER_BINARY = 8 * units.MiB
WORKER_EPHEMERAL = 512 * units.MiB


class Job:
    """One batch of futures sharing a monitor and a trace."""

    def __init__(self, job_id: str, kind: str, monitor: JobMonitor) -> None:
        self.job_id = job_id
        self.kind = kind
        self.monitor = monitor
        self.futures: list[ResponseFuture] = []


def worker_handler(context, payload):
    """The generic worker: run the shipped ``fn`` over its data chunk.

    ``fn(context, data)`` may return a value directly or a generator to
    be driven as part of this handler (for storage I/O and compute
    time). Errors propagate to the platform, which records them on the
    invocation record for the invoker's retry logic.
    """
    recorder = get_recorder()
    span = None
    if recorder is not None:
        span = recorder.start_span(
            f"fn {payload['call_id']}", context.env.now,
            parent=context.trace_ctx, category="futures",
            attrs={"call_id": payload["call_id"],
                   "attempt": payload["attempt"]})
    try:
        value = payload["fn"](context, payload["data"])
        if hasattr(value, "send") and hasattr(value, "throw"):
            value = yield from value
    except BaseException:
        if span is not None:
            span.finish(context.env.now, ok=False)
        raise
    if span is not None:
        span.finish(context.env.now, ok=True)
    return value


class FunctionExecutor:
    """Submits function calls over the platform and tracks their futures."""

    def __init__(self, env, platform, rng,
                 recovery: RecoveryPolicy = RecoveryPolicy()) -> None:
        self.env = env
        self.platform = platform
        #: Attempt cap and hedging of every call.
        self.recovery = recovery
        self.function = FunctionConfig(
            name=FUNCTION_NAME, handler=worker_handler,
            memory_bytes=WORKER_MEMORY, binary_bytes=WORKER_BINARY,
            ephemeral_bytes=WORKER_EPHEMERAL)
        platform.deploy(self.function)
        self.invoker = Invoker(env, platform, self.function, recovery,
                               rng.stream("futures.backoff"))
        self.jobs: list[Job] = []

    # -- submission ------------------------------------------------------------

    def map(self, fn, iterable) -> list[ResponseFuture]:
        """Fan ``fn`` out over ``iterable``; one future per item.

        Futures are created in iteration order and dispatched FIFO
        through the invoker's in-flight bound; an empty iterable yields
        an empty list (and no job).
        """
        items = list(iterable)
        if not items:
            return []
        job = self._new_job("map")
        futures = [self._submit(job, fn, item) for item in items]
        if self.recovery.hedge and len(futures) > 1:
            self.env.process(self.invoker.speculate(futures),
                             name=f"speculate-{job.job_id}")
        return futures

    def map_reduce(self, map_fn, iterable, reduce_fn) -> ResponseFuture:
        """Map, then reduce the gathered results in one worker call.

        Returns the *reduce* future (its ``map_futures`` attribute holds
        the map phase). The reducer is invoked with the list of map
        results in submission order once every map call has succeeded; a
        failed map call fails the reduce future with that same error,
        without invoking the reducer.
        """
        map_futures = self.map(map_fn, iterable)
        job = self._new_job("reduce")
        reduce_future = ResponseFuture(
            self.env, job.job_id, f"{job.job_id}-00000", None,
            monitor=job.monitor)
        reduce_future.map_futures = map_futures
        job.futures.append(reduce_future)
        self.env.process(
            self._reduce_driver(job, reduce_future, map_futures, reduce_fn),
            name=f"reduce-{job.job_id}")
        return reduce_future

    def _new_job(self, kind: str) -> Job:
        job_id = f"j{len(self.jobs):03d}"
        monitor = JobMonitor(self.env, job_id)
        recorder = get_recorder()
        if recorder is not None:
            monitor.span = recorder.start_trace(
                f"futures {job_id} {kind}", self.env.now, category="futures",
                attrs={"job": job_id, "kind": kind})
        job = Job(job_id, kind, monitor)
        self.jobs.append(job)
        return job

    def _submit(self, job: Job, fn, data: Any) -> ResponseFuture:
        call_id = f"{job.job_id}-{len(job.futures):05d}"
        future = ResponseFuture(self.env, job.job_id, call_id, data,
                                monitor=job.monitor)
        job.futures.append(future)
        self.invoker.submit(future, fn, parent=job.monitor.span)
        return future

    def _reduce_driver(self, job: Job, reduce_future: ResponseFuture,
                       map_futures: list[ResponseFuture], reduce_fn):
        """Process: await the map phase, then dispatch the reducer."""
        if map_futures:
            yield AllOf(self.env,
                        [future.done_event for future in map_futures])
        failed = next((future for future in map_futures
                       if not future.success), None)
        if failed is not None:
            reduce_future.reject(failed.error)
            return reduce_future
        reduce_future.data = [future.result() for future in map_futures]
        self.invoker.submit(reduce_future, reduce_fn,
                            parent=job.monitor.span)
        yield reduce_future.done_event
        return reduce_future

    # -- waiting ---------------------------------------------------------------

    def wait(self, fs):
        """Process: wait until every future is done; returns
        ``(done, pending)``, ``pending`` empty."""
        fs = list(fs)
        open_events = [future.done_event for future in fs if not future.done]
        if open_events:
            yield AllOf(self.env, open_events)
        return fs, []

    def get_result(self, fs):
        """Process: wait for ``fs`` and return result(s) in input order.

        A single future yields its value; an iterable yields a list. A
        failed future re-raises its error.
        """
        if isinstance(fs, ResponseFuture):
            yield from self.wait([fs])
            return fs.result()
        fs = list(fs)
        yield from self.wait(fs)
        return [future.result() for future in fs]

    def drain(self):
        """Process: await abandoned speculative attempts still in flight.

        Run before auditing platform-level costs — zombies bill on
        completion.
        """
        return (yield from self.invoker.drain())

    # -- accounting ------------------------------------------------------------

    @property
    def futures(self) -> list[ResponseFuture]:
        """Every future this executor created, in submission order."""
        return [future for job in self.jobs for future in job.futures]

    def compute_cost_usd(self) -> float:
        """Sum of per-future attempt costs (the futures-side view)."""
        return sum(future.cost_usd for future in self.futures)

    def catalog_cost_usd(self) -> float:
        """Pricing-catalog compute total over the platform's records.

        Itemizes every invocation record of the worker function through
        :class:`~repro.pricing.calculator.CostCalculator` — the
        experiment-accounting view the per-future sum must reproduce.
        """
        calculator = CostCalculator()
        for record in self.platform.records:
            if record.function == self.function.name:
                calculator.add_function_invocation(
                    self.function.memory_bytes, record.duration,
                    self.function.ephemeral_bytes)
        return calculator.cost.total

    def summary(self) -> dict:
        """JSON-ready executor statistics (jobs, states, dispatch)."""
        states = {"pending": 0, "running": 0, "success": 0, "error": 0}
        for job in self.jobs:
            for state, count in job.monitor.counts.items():
                states[state] += count
        return {
            "function": self.function.name,
            "jobs": [job.monitor.summary() for job in self.jobs],
            "calls": sum(job.monitor.total for job in self.jobs),
            "states": states,
            "invoker": self.invoker.summary(),
            "compute_cost_usd": round(self.compute_cost_usd(), 12),
        }
