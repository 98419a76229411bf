"""The query coordinator function.

The coordinator receives a physical plan, fetches input metadata
from the catalog, compiles the distributed plan (fragments per pipeline,
burst-aware worker sizing), schedules pipelines stage-wise, and gathers
the worker reports. For wide stages it fans invocations out through a
two-level procedure: helper "invoker" functions each dispatch a slice of
the workers (Section 3.2, [96]).

Fault tolerance is task-level (the Lambada/Starling recipe): every
fragment attempt runs *supervised* — its error is captured, never
propagated raw into the event kernel — and transient failures are
retried with jittered exponential backoff under a per-query retry
budget. Stragglers can additionally be hedged: once enough of a stage
has finished, fragments running far beyond the completed median get a
speculative duplicate, and whichever attempt finishes first wins.
Non-transient errors (missing table, oversized item) propagate
unchanged, annotated with the fragment's identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import units
from repro.datagen.datasets import TableMetadata
from repro.engine.plan import (
    PhysicalPlan,
    PipelineSpec,
    ResultSink,
    ShuffleSource,
    TableSource,
)
from repro.engine.tracing import hedge_candidates
from repro.faas.function import FunctionContext
from repro.sim import AnyOf
from repro.telemetry import get_recorder

#: Per-invocation dispatch overhead on the invoking function (seconds).
INVOKE_DISPATCH_S = 0.003

#: Stages at or above this width use two-level invocation (Section 3.2).
TWO_LEVEL_THRESHOLD = 256

#: Workers dispatched per second-level invoker.
INVOKER_SLICE = 32

#: Burst-aware per-worker scan volume target: keep the effective bytes a
#: worker pulls within the ~300 MiB network burst budget (Section 4.5.1).
DEFAULT_TARGET_WORKER_INPUT = 270 * units.MiB


@dataclass(frozen=True)
class RecoveryConfig:
    """Task-level fault-tolerance knobs of the coordinator."""

    #: Total tries per fragment (1 = no retries, the pre-recovery engine).
    max_attempts: int = 3
    #: Retries allowed across one whole query.
    retry_budget: int = 32
    backoff_base_s: float = 0.1
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 5.0
    #: Uniform jitter fraction applied to each backoff delay.
    backoff_jitter: float = 0.5
    #: Speculative re-execution of stragglers. Off by default: hedging
    #: reacts to *natural* timing variance too, which would perturb the
    #: calibrated fault-free artifacts.
    hedge_enabled: bool = False
    #: A fragment is hedged when it runs ``hedge_factor`` x the median
    #: elapsed time of completed fragments in its stage.
    hedge_factor: float = 3.0
    #: Fraction of the stage that must have completed before hedging.
    hedge_quorum: float = 0.5
    #: Hedge launches allowed per query.
    hedge_budget: int = 4
    #: Never hedge before a fragment has run at least this long.
    hedge_min_wait_s: float = 0.5
    #: Straggler-scan interval while a stage is in flight.
    hedge_poll_interval_s: float = 0.25
    #: Seed of the per-query backoff-jitter stream.
    seed: int = 0


DEFAULT_RECOVERY = RecoveryConfig()


class FragmentFailure(RuntimeError):
    """A fragment exhausted its retry allowance.

    Carries the fragment's identity so callers (and the resilience
    report) can name the failing task — the two-level invoker path used
    to absorb concurrent failures into one anonymous error.
    """

    def __init__(self, pipeline: str, fragment: int, attempts: int,
                 cause: BaseException) -> None:
        super().__init__(
            f"fragment {pipeline}/{fragment} failed after {attempts} "
            f"attempt(s): {cause!r}")
        self.pipeline = pipeline
        self.fragment = fragment
        self.attempts = attempts
        self.cause = cause


@dataclass
class RecoveryState:
    """Per-query recovery accounting, reported back with the response."""

    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    failed_attempts: int = 0
    events: list[dict] = field(default_factory=list)
    #: In-flight duplicate attempts whose sibling already won; drained
    #: by the engine after the query so their records are billed.
    zombies: list = field(default_factory=list)

    def summary(self) -> dict:
        return {"retries": self.retries, "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "failed_attempts": self.failed_attempts,
                "events": self.events}


@dataclass
class StageReport:
    """Aggregated execution data of one pipeline."""

    pipeline: str
    fragments: int
    started_at: float
    finished_at: float
    requests: int = 0
    read_requests: int = 0
    write_requests: int = 0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    rows_out: int = 0
    shuffle_read_time_max: float = 0.0
    request_sizes: list[float] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall time of the stage."""
        return self.finished_at - self.started_at


@dataclass
class CoordinatorRuntime:
    """Services the coordinator binary is linked against."""

    catalog: dict[str, TableMetadata]
    backend: object  # LambdaPlatform or VmShim (same invoke interface)
    worker_function: str
    invoker_function: str
    intermediate_service: str = "s3-standard"
    target_worker_input: float = DEFAULT_TARGET_WORKER_INPUT
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    #: Monotonic execution counter; fences idempotent shuffle writes.
    epoch: int = 0


def make_coordinator_handler(runtime: CoordinatorRuntime):
    """Build the coordinator handler bound to ``runtime``."""

    def coordinator_handler(context: FunctionContext, payload: dict):
        return (yield from _run_query(runtime, context, payload))

    coordinator_handler.__name__ = "skyrise_coordinator"
    return coordinator_handler


def make_invoker_handler(runtime: CoordinatorRuntime):
    """Second-level invoker: dispatch a slice of worker invocations.

    Returns one outcome dict per fragment — ``{pipeline, fragment,
    attempt, ok, value}`` — instead of failing fast on the first worker
    error, so concurrent fragment failures keep their identity and the
    coordinator can retry each one individually.
    """

    def invoker_handler(context: FunctionContext, payload: dict):
        env = context.env
        processes = []
        for fragment_payload in payload["fragments"]:
            yield env.timeout(INVOKE_DISPATCH_S)
            if context.trace_ctx is not None:
                # Re-parent the worker invoke under this invoker's span so
                # the trace shows the two-level fan-out.
                fragment_payload = dict(fragment_payload,
                                        trace=context.trace_ctx)
            processes.append((fragment_payload, env.process(
                _supervise(env, runtime.backend, runtime.worker_function,
                           fragment_payload),
                name="invoke-worker")))
        outcomes = []
        for fragment_payload, process in processes:
            ok, value = yield process
            outcomes.append({
                "pipeline": fragment_payload["pipeline"].id,
                "fragment": fragment_payload["fragment"],
                "attempt": fragment_payload.get("attempt", 0),
                "ok": ok,
                "value": value,
            })
        return outcomes

    invoker_handler.__name__ = "skyrise_invoker"
    return invoker_handler


def _run_query(runtime: CoordinatorRuntime, context: FunctionContext,
               payload: dict):
    env = context.env
    plan: PhysicalPlan = payload["plan"]
    started_at = env.now
    runtime.epoch += 1
    epoch = runtime.epoch
    state = RecoveryState()
    jitter_rng = np.random.default_rng(runtime.recovery.seed)
    fragments = _compile_fragments(runtime, plan)
    recorder = get_recorder()
    coord_span = None
    if recorder.enabled:
        coord_span = recorder.start_span(
            f"coordinate {plan.query_id}", env.now,
            parent=context.trace_ctx, category="coordinator",
            attrs={"query_id": plan.query_id, "epoch": epoch})
    stage_reports: list[StageReport] = []
    for stage in plan.stages():
        processes = []
        stage_started = env.now
        for pipeline in stage:
            payloads = _fragment_payloads(runtime, plan, pipeline, fragments,
                                          epoch=epoch)
            stage_span = None
            if coord_span is not None:
                stage_span = recorder.start_span(
                    f"stage {pipeline.id}", env.now, parent=coord_span,
                    category="stage",
                    attrs={"pipeline": pipeline.id,
                           "fragments": fragments[pipeline.id]})
                for fragment_payload in payloads:
                    fragment_payload["trace"] = stage_span
            processes.append((pipeline, stage_span, env.process(
                _dispatch(runtime, context, pipeline.id, payloads, state,
                          jitter_rng),
                name=f"stage-{pipeline.id}")))
        for pipeline, stage_span, process in processes:
            reports = yield process
            report = _aggregate_stage(
                pipeline, fragments[pipeline.id], stage_started, env.now,
                reports)
            stage_reports.append(report)
            if stage_span is not None:
                stage_span.finish(env.now, rows_out=report.rows_out,
                                  bytes_read=report.bytes_read,
                                  bytes_written=report.bytes_written)
    if coord_span is not None:
        coord_span.finish(env.now, retries=state.retries,
                          hedges=state.hedges)
    final = plan.final_pipeline
    return {
        "query_id": plan.query_id,
        "result_keys": [f"results/{plan.query_id}/part-{i:05d}"
                        for i in range(fragments[final.id])],
        "runtime": env.now - started_at,
        "stages": stage_reports,
        "fragments": fragments,
        "recovery": state.summary(),
        # Abandoned duplicates, still running: the engine drains these
        # after the query so their invocation records get billed.
        "_zombies": state.zombies,
    }


def _compile_fragments(runtime: CoordinatorRuntime,
                       plan: PhysicalPlan) -> dict[str, int]:
    """Decide data-parallel fragment counts per pipeline.

    Scan pipelines are sized burst-aware: the effective bytes a worker
    reads (partition size x projected-column fraction) stay within the
    network burst budget. Shuffle-consumer pipelines default to half the
    widest producer, bounded to [1, 128].
    """
    fragments: dict[str, int] = {}
    for pipeline in plan.pipelines:
        if pipeline.fragments is not None:
            fragments[pipeline.id] = pipeline.fragments
            continue
        if isinstance(pipeline.source, TableSource):
            table = runtime.catalog[pipeline.source.table]
            fraction = _read_fraction(table, pipeline.source.columns)
            effective = table.total_logical_bytes * fraction
            count = max(1, math.ceil(effective / runtime.target_worker_input))
            fragments[pipeline.id] = min(count, table.partition_count)
        else:
            producers = [fragments[dep] for dep in pipeline.depends_on]
            widest = max(producers) if producers else 1
            fragments[pipeline.id] = max(1, min(128, widest // 2))
    return fragments


def _read_fraction(table: TableMetadata, columns: list[str]) -> float:
    """Byte fraction of a table's width covered by ``columns``."""

    def width(names: list[str]) -> float:
        total = 0.0
        for name in names:
            dtype = table.schema.field(name).dtype
            fixed = dtype.fixed_width
            total += fixed if fixed is not None else 16.0
        return total

    full = width(table.schema.names())
    return width(columns) / full if full else 1.0


def _fragment_payloads(runtime: CoordinatorRuntime, plan: PhysicalPlan,
                       pipeline: PipelineSpec,
                       fragments: dict[str, int],
                       epoch: int = 0) -> list[dict]:
    """Build the worker payloads for every fragment of a pipeline."""
    count = fragments[pipeline.id]
    consumers = _consumer_fragments(plan, pipeline, fragments)
    side_tables = {}
    for name, table_name in pipeline.side_tables.items():
        table = runtime.catalog[table_name]
        side_tables[name] = {
            "partitions": [{"key": p.key, "logical_bytes": p.logical_bytes}
                           for p in table.partitions],
            "columns": table.schema.names(),
            "read_fraction": 1.0,
        }
    payloads = []
    for fragment in range(count):
        payload = {
            "query_id": plan.query_id,
            "pipeline": pipeline,
            "fragment": fragment,
            "fragment_count": count,
            "out_partitions": consumers,
            "side_tables": side_tables,
            "intermediate_service": runtime.intermediate_service,
            "table_service": "s3-standard",
            "epoch": epoch,
            "attempt": 0,
            "hedged": False,
        }
        if isinstance(pipeline.source, TableSource):
            table = runtime.catalog[pipeline.source.table]
            payload["table_service"] = table.service_name
            assigned = table.partitions[fragment::count]
            payload["partitions"] = [
                {"key": p.key, "logical_bytes": p.logical_bytes}
                for p in assigned]
            payload["read_fraction"] = _read_fraction(
                table, pipeline.source.columns)
        else:
            payload["producer_fragments"] = {
                upstream: fragments[upstream]
                for upstream in pipeline.source.inputs.values()}
        payloads.append(payload)
    return payloads


def _consumer_fragments(plan: PhysicalPlan, pipeline: PipelineSpec,
                        fragments: dict[str, int]) -> int:
    """Fragment count of the pipeline consuming this one's shuffle output."""
    if isinstance(pipeline.sink, ResultSink):
        return 1
    for candidate in plan.pipelines:
        if isinstance(candidate.source, ShuffleSource) \
                and pipeline.id in candidate.source.inputs.values():
            return fragments[candidate.id]
    raise ValueError(f"pipeline {pipeline.id!r} has a shuffle sink but "
                     f"no consumer")


# -- supervised fragment execution --------------------------------------------


def _supervise(env, backend, function: str, payload: dict):
    """Process: invoke ``function`` and absorb any error into the result.

    Returns ``(True, response)`` or ``(False, error)``. The process
    itself never fails, so concurrent attempts cannot crash the kernel
    with an unwatched failure, and every failure keeps its fragment's
    identity.
    """
    try:
        record = yield from backend.invoke(function, payload)
    except BaseException as exc:  # noqa: BLE001 - captured for the caller
        return (False, exc)
    return (True, record.response)


def _delayed_attempt(env, backend, function: str, payload: dict,
                     delay: float):
    """Process: back off, then run one supervised attempt."""
    if delay > 0:
        yield env.timeout(delay)
    result = yield from _supervise(env, backend, function, payload)
    return result


class _Slot:
    """In-flight state of one fragment during dispatch."""

    __slots__ = ("payload", "fragment", "attempts", "launched_at",
                 "hedged", "done", "report", "active")

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self.fragment = payload["fragment"]
        self.attempts = 0       # attempts launched (primary + retries)
        self.launched_at = 0.0  # first-attempt dispatch time
        self.hedged = False
        self.done = False
        self.report = None
        #: (process, attempt_no, is_hedge) of live attempts.
        self.active: list[tuple] = []


def _backoff_delay(recovery: RecoveryConfig, attempt: int,
                   rng: np.random.Generator) -> float:
    """Jittered exponential backoff before retry number ``attempt``."""
    delay = min(recovery.backoff_cap_s,
                recovery.backoff_base_s
                * recovery.backoff_multiplier ** (attempt - 1))
    if recovery.backoff_jitter > 0:
        delay *= 1.0 + recovery.backoff_jitter * (2.0 * float(rng.random())
                                                  - 1.0)
    return delay


def _annotate(exc: BaseException, pipeline: str, fragment: int,
              attempt: int) -> None:
    """Attach fragment identity to an error without wrapping it."""
    if hasattr(exc, "add_note"):  # Python 3.11+
        exc.add_note(f"while executing fragment {pipeline}/{fragment} "
                     f"(attempt {attempt})")


def _handle_failure(env, runtime: CoordinatorRuntime, pipeline_id: str,
                    slot: _Slot, exc: BaseException, state: RecoveryState,
                    rng: np.random.Generator) -> None:
    """Retry a transient fragment failure or raise it with identity.

    Application errors (non-retryable) propagate unchanged so callers
    keep seeing the original exception type; transient errors retry
    until the per-fragment attempt cap or the query retry budget runs
    out, then surface as :class:`FragmentFailure`.
    """
    recovery = runtime.recovery
    if not getattr(exc, "retryable", False):
        _annotate(exc, pipeline_id, slot.fragment, slot.attempts - 1)
        raise exc
    if slot.attempts >= recovery.max_attempts \
            or state.retries >= recovery.retry_budget:
        raise FragmentFailure(pipeline_id, slot.fragment, slot.attempts,
                              exc) from exc
    state.retries += 1
    delay = _backoff_delay(recovery, slot.attempts, rng)
    payload = dict(slot.payload, attempt=slot.attempts, hedged=False)
    slot.attempts += 1
    state.events.append({
        "t": round(env.now, 9), "event": "retry", "pipeline": pipeline_id,
        "fragment": slot.fragment, "attempt": payload["attempt"],
        "backoff_s": round(delay, 9),
        "cause": type(exc).__name__})
    recorder = get_recorder()
    if recorder.enabled:
        recorder.event(env.now, "recovery.retry", category="recovery",
                       pipeline=pipeline_id, fragment=slot.fragment,
                       attempt=payload["attempt"], backoff_s=delay,
                       cause=type(exc).__name__)
    slot.active.append((
        env.process(_delayed_attempt(env, runtime.backend,
                                     runtime.worker_function, payload,
                                     delay),
                    name=f"retry-{pipeline_id}-{slot.fragment}"),
        payload["attempt"], False))


def _dispatch(runtime: CoordinatorRuntime, context: FunctionContext,
              pipeline_id: str, payloads: list[dict], state: RecoveryState,
              rng: np.random.Generator):
    """Process: run all fragments of a pipeline with fault tolerance."""
    env = context.env
    slots = [_Slot(payload) for payload in payloads]
    if len(payloads) >= TWO_LEVEL_THRESHOLD:
        yield from _prime_two_level(env, runtime, pipeline_id, slots, state,
                                    rng)
        # Hedging needs live per-fragment elapsed times; the two-level
        # path only learns outcomes after an invoker slice returns, so
        # only the retry layer applies here.
        allow_hedge = False
    else:
        for slot in slots:
            yield env.timeout(INVOKE_DISPATCH_S)
            slot.attempts = 1
            slot.launched_at = env.now
            slot.active.append((
                env.process(_supervise(env, runtime.backend,
                                       runtime.worker_function,
                                       slot.payload),
                            name="invoke-worker"),
                0, False))
        allow_hedge = True
    yield from _await_slots(runtime, context, pipeline_id, slots, state,
                            rng, allow_hedge)
    return [slot.report for slot in slots]


def _prime_two_level(env, runtime: CoordinatorRuntime, pipeline_id: str,
                     slots: list[_Slot], state: RecoveryState,
                     rng: np.random.Generator):
    """Process: fan the stage out through second-level invokers."""
    chunks = [slots[i:i + INVOKER_SLICE]
              for i in range(0, len(slots), INVOKER_SLICE)]
    processes = []
    for chunk in chunks:
        yield env.timeout(INVOKE_DISPATCH_S)
        for slot in chunk:
            slot.attempts = 1
            slot.launched_at = env.now
        invoker_payload = {"fragments": [slot.payload for slot in chunk]}
        trace = chunk[0].payload.get("trace")
        if trace is not None:
            invoker_payload["trace"] = trace
        processes.append((chunk, env.process(
            _supervise(env, runtime.backend, runtime.invoker_function,
                       invoker_payload),
            name="invoke-invoker")))
    for chunk, process in processes:
        ok, value = yield process
        if not ok:
            exc = value
            if not getattr(exc, "retryable", False):
                _annotate(exc, pipeline_id,
                          chunk[0].fragment, 0)
                raise exc
            # The invoker itself died: retry its whole slice as direct
            # worker invocations, one fragment at a time.
            for slot in chunk:
                state.failed_attempts += 1
                _handle_failure(env, runtime, pipeline_id, slot, exc,
                                state, rng)
            continue
        by_fragment = {slot.fragment: slot for slot in chunk}
        for outcome in value:
            slot = by_fragment[outcome["fragment"]]
            if outcome["ok"]:
                slot.done = True
                slot.report = outcome["value"]
            else:
                state.failed_attempts += 1
                _handle_failure(env, runtime, pipeline_id, slot,
                                outcome["value"], state, rng)


def _await_slots(runtime: CoordinatorRuntime, context: FunctionContext,
                 pipeline_id: str, slots: list[_Slot],
                 state: RecoveryState, rng: np.random.Generator,
                 allow_hedge: bool):
    """Process: drive all slots to completion (retries + hedging)."""
    env = context.env
    recovery = runtime.recovery
    completed_durations: list[float] = []
    by_fragment = {slot.fragment: slot for slot in slots}
    while True:
        open_slots = [slot for slot in slots if not slot.done]
        if not open_slots:
            return
        waits = [process for slot in open_slots
                 for (process, _, _) in slot.active]
        hedging = (allow_hedge and recovery.hedge_enabled
                   and state.hedges < recovery.hedge_budget
                   and any(not slot.hedged for slot in open_slots))
        if hedging:
            yield AnyOf(env, waits
                        + [env.timeout(recovery.hedge_poll_interval_s)])
        else:
            yield AnyOf(env, waits)
        for slot in slots:
            finished = [entry for entry in slot.active
                        if entry[0].processed]
            if not finished:
                continue
            slot.active = [entry for entry in slot.active
                           if not entry[0].processed]
            for process, attempt_no, is_hedge in finished:
                ok, value = process.value
                if slot.done:
                    continue  # late duplicate; already billed, ignored
                if ok:
                    slot.done = True
                    slot.report = value
                    completed_durations.append(env.now - slot.launched_at)
                    if is_hedge:
                        state.hedge_wins += 1
                        state.events.append({
                            "t": round(env.now, 9), "event": "hedge_win",
                            "pipeline": pipeline_id,
                            "fragment": slot.fragment})
                        recorder = get_recorder()
                        if recorder.enabled:
                            recorder.event(
                                env.now, "recovery.hedge_win",
                                category="recovery", pipeline=pipeline_id,
                                fragment=slot.fragment)
                    # Any sibling attempts still in flight are zombies:
                    # they run (and bill) to completion unobserved.
                    state.zombies.extend(
                        entry[0] for entry in slot.active)
                    slot.active = []
                else:
                    state.failed_attempts += 1
                    _handle_failure(env, runtime, pipeline_id, slot, value,
                                    state, rng)
        if hedging:
            elapsed = {slot.fragment: env.now - slot.launched_at
                       for slot in slots
                       if not slot.done and not slot.hedged}
            for fragment in hedge_candidates(
                    elapsed, completed_durations, len(slots),
                    factor=recovery.hedge_factor,
                    quorum=recovery.hedge_quorum,
                    min_wait_s=recovery.hedge_min_wait_s,
                    now=env.now, pipeline=pipeline_id):
                if state.hedges >= recovery.hedge_budget:
                    break
                slot = by_fragment[fragment]
                state.hedges += 1
                slot.hedged = True
                payload = dict(slot.payload, attempt=slot.attempts,
                               hedged=True)
                state.events.append({
                    "t": round(env.now, 9), "event": "hedge",
                    "pipeline": pipeline_id, "fragment": slot.fragment,
                    "elapsed_s": round(elapsed[fragment], 9)})
                recorder = get_recorder()
                if recorder.enabled:
                    recorder.event(
                        env.now, "recovery.hedge", category="recovery",
                        pipeline=pipeline_id, fragment=slot.fragment,
                        elapsed_s=elapsed[fragment])
                slot.active.append((
                    env.process(_supervise(env, runtime.backend,
                                           runtime.worker_function,
                                           payload),
                                name=f"hedge-{pipeline_id}-{fragment}"),
                    slot.attempts, True))


def _aggregate_stage(pipeline: PipelineSpec, fragments: int,
                     started_at: float, finished_at: float,
                     reports) -> StageReport:
    stage = StageReport(pipeline=pipeline.id, fragments=fragments,
                        started_at=started_at, finished_at=finished_at)
    for report in reports:
        stage.requests += report.requests
        stage.read_requests += report.read_requests
        stage.write_requests += report.write_requests
        stage.bytes_read += report.bytes_read
        stage.bytes_written += report.bytes_written
        stage.rows_out += report.rows_out
        stage.request_sizes.extend(report.request_sizes)
        stage.shuffle_read_time_max = max(
            stage.shuffle_read_time_max,
            report.phases.get("shuffle_read", 0.0))
    return stage
