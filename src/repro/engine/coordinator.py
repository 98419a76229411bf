"""The query coordinator function.

The coordinator receives a physical plan, fetches input metadata
from the catalog, compiles the distributed plan (fragments per pipeline,
burst-aware worker sizing), schedules pipelines stage-wise, and gathers
the worker reports. For wide stages it fans invocations out through a
two-level procedure: helper "invoker" functions each dispatch a slice of
the workers (Section 3.2, [96]).

Every fragment attempt runs *supervised*, settled by the policy of
:mod:`repro.faas.supervisor` (retries, hedging). A non-transient error
propagates unchanged, annotated with the fragment's identity; a
fragment out of attempts or budget raises :class:`FragmentFailure`.
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
from repro.faas import supervisor
from repro.faas.function import FunctionContext
from repro.faas.supervisor import (
    INVOKE_DISPATCH_S,
    JITTER_SEED,
    QUERY_RETRY_BUDGET,
    RecoveryPolicy,
    Supervisor,
    hedge_candidates,
)
from repro.sim import AnyOf
from repro.telemetry import get_recorder

#: Stages at or above this width use two-level invocation (Section 3.2).
TWO_LEVEL_THRESHOLD = 256

#: Workers dispatched per second-level invoker.
INVOKER_SLICE = 32

#: Burst-aware per-worker scan volume target: keep the effective bytes a
#: worker pulls within the ~300 MiB network burst budget (Section 4.5.1).
DEFAULT_TARGET_WORKER_INPUT = 270 * units.MiB


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


class RecoveryState(Supervisor):
    """Per-query recovery accounting, reported back with the response."""

    def __init__(self, policy: RecoveryPolicy) -> None:
        super().__init__(policy, np.random.default_rng(JITTER_SEED),
                         QUERY_RETRY_BUDGET)
        self.events: list[dict] = []

    def note(self, now: float, event: str, pipeline: str, fragment: int,
             **attrs) -> None:
        """Log a recovery decision in the report and on the trace."""
        self.events.append({
            "t": round(now, 9), "event": event, "pipeline": pipeline,
            "fragment": fragment,
            **{name: round(value, 9) if isinstance(value, float) else value
               for name, value in attrs.items()}})
        recorder = get_recorder()
        if recorder is not None:
            recorder.event(now, f"recovery.{event}", category="recovery",
                           pipeline=pipeline, fragment=fragment, **attrs)


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
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
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

    Returns one ``(ok, value)`` outcome per fragment, in slice order,
    instead of failing fast on the first worker error, so concurrent
    fragment failures keep their identity and the coordinator can retry
    each one individually.
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
            processes.append(env.process(
                _supervise(env, runtime.backend, runtime.worker_function,
                           fragment_payload),
                name="invoke-worker"))
        outcomes = []
        for process in processes:
            outcomes.append((yield process))
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
    state = RecoveryState(runtime.recovery)
    fragments = _compile_fragments(runtime, plan)
    recorder = get_recorder()
    coord_span = None
    if recorder is not None:
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
                _dispatch(runtime, context, pipeline.id, payloads, state),
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
        # Its zombies may still be running: the engine drains them.
        "recovery": state,
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


def _supervise(env, backend, function: str, payload: dict,
               delay: float = 0.0):
    """Process: back off, invoke ``function``, absorb any error.

    Returns ``(True, response)`` or ``(False, error)``; never fails, so
    concurrent attempts cannot crash the kernel with an unwatched error.
    """
    if delay > 0:
        yield env.timeout(delay)
    try:
        record = yield from backend.invoke(function, payload)
    except BaseException as exc:  # noqa: BLE001 - captured for the caller
        return (False, exc)
    return (True, record.response)


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


def _annotate(exc: BaseException, pipeline: str, fragment: int,
              attempt: int) -> None:
    """Attach fragment identity to an error without wrapping it."""
    if hasattr(exc, "add_note"):  # Python 3.11+
        exc.add_note(f"while executing fragment {pipeline}/{fragment} "
                     f"(attempt {attempt})")


def _handle_failure(env, runtime: CoordinatorRuntime, pipeline_id: str,
                    slot: _Slot, exc: BaseException,
                    state: RecoveryState) -> None:
    """Retry a failed fragment attempt, or raise it with identity."""
    delay = state.retry_delay(exc, slot.attempts)
    if delay is None:
        if not getattr(exc, "retryable", False):
            _annotate(exc, pipeline_id, slot.fragment, slot.attempts - 1)
            raise exc
        raise FragmentFailure(pipeline_id, slot.fragment, slot.attempts,
                              exc) from exc
    payload = dict(slot.payload, attempt=slot.attempts, hedged=False)
    slot.attempts += 1
    state.note(env.now, "retry", pipeline_id, slot.fragment,
               attempt=payload["attempt"], backoff_s=delay,
               cause=type(exc).__name__)
    slot.active.append((
        env.process(_supervise(env, runtime.backend, runtime.worker_function,
                               payload, delay),
                    name=f"retry-{pipeline_id}-{slot.fragment}"),
        payload["attempt"], False))


def _dispatch(runtime: CoordinatorRuntime, context: FunctionContext,
              pipeline_id: str, payloads: list[dict], state: RecoveryState):
    """Process: run all fragments of a pipeline with fault tolerance."""
    env = context.env
    slots = [_Slot(payload) for payload in payloads]
    if len(payloads) >= TWO_LEVEL_THRESHOLD:
        yield from _prime_two_level(env, runtime, pipeline_id, slots, state)
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
                            allow_hedge)
    return [slot.report for slot in slots]


def _prime_two_level(env, runtime: CoordinatorRuntime, pipeline_id: str,
                     slots: list[_Slot], state: RecoveryState):
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
        # A dead invoker fails its whole slice: each fragment retries as
        # a direct worker invocation of its own.
        outcomes = value if ok else [(False, value)] * len(chunk)
        for slot, (ok, outcome) in zip(chunk, outcomes):
            if ok:
                slot.done = True
                slot.report = outcome
            else:
                _handle_failure(env, runtime, pipeline_id, slot, outcome,
                                state)


def _await_slots(runtime: CoordinatorRuntime, context: FunctionContext,
                 pipeline_id: str, slots: list[_Slot],
                 state: RecoveryState, allow_hedge: bool):
    """Process: drive all slots to completion (retries + hedging)."""
    env = context.env
    completed_durations: list[float] = []
    while True:
        open_slots = [slot for slot in slots if not slot.done]
        if not open_slots:
            return
        waits = [process for slot in open_slots
                 for (process, _, _) in slot.active]
        hedging = (allow_hedge and state.may_hedge
                   and any(not slot.hedged for slot in open_slots))
        if hedging:
            yield AnyOf(env, waits
                        + [env.timeout(supervisor.STRAGGLER_POLL_S)])
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
                        state.note(env.now, "hedge_win", pipeline_id,
                                   slot.fragment)
                    state.won(is_hedge, [entry[0] for entry in slot.active])
                    slot.active = []
                else:
                    _handle_failure(env, runtime, pipeline_id, slot, value,
                                    state)
        if hedging:
            elapsed = {slot.fragment: env.now - slot.launched_at
                       for slot in slots
                       if not slot.done and not slot.hedged}
            for fragment in hedge_candidates(
                    elapsed, completed_durations, len(slots),
                    now=env.now, pipeline=pipeline_id):
                if not state.take_hedge():
                    break
                slot = slots[fragment]
                slot.hedged = True
                payload = dict(slot.payload, attempt=slot.attempts,
                               hedged=True)
                state.note(env.now, "hedge", pipeline_id, slot.fragment,
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
