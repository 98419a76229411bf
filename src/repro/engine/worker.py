"""The query worker function.

A worker executes one pipeline *fragment*: it reads its share of the
input (table partitions or shuffle slices), runs the operator chain
vectorized, and writes its output (hash-partitioned shuffle object or
result part). It reports request counts, byte volumes, and per-phase
timings back to the coordinator (the engine traces runtime information
with query context — Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.barrier import BarrierRegistry
from repro.engine.cost import CpuCostModel
from repro.engine.io import IoStack
from repro.engine.plan import (
    PipelineSpec,
    ShuffleSink,
    ShuffleSource,
    TableSource,
)
from repro.engine.shuffle import ShuffleReader, ShuffleWriter
from repro.faas.function import FunctionContext
from repro.formats.batch import RecordBatch
from repro.formats.columnar import ColumnarCache, read_file
from repro.storage.base import StorageService
from repro.telemetry import get_recorder


@dataclass
class WorkerRuntime:
    """Services a worker binary is linked against."""

    storage: dict[str, StorageService]
    barriers: BarrierRegistry
    cost_model: CpuCostModel
    #: Storage service name used for shuffle intermediates and results.
    intermediate_service: str = "s3-standard"
    #: Shared footer/chunk decode cache; ``None`` disables caching.
    columnar_cache: ColumnarCache | None = None


@dataclass
class WorkerReport:
    """What a fragment sends back to the coordinator."""

    pipeline: str
    fragment: int
    rows_out: int
    requests: int
    read_requests: int
    write_requests: int
    retried: int
    bytes_read: float
    bytes_written: float
    request_sizes: list[float] = field(default_factory=list)
    phases: dict[str, float] = field(default_factory=dict)
    result_key: str | None = None
    #: Retry attempt number of this execution (0 = primary).
    attempt: int = 0
    #: Whether this execution was a speculative (hedged) duplicate.
    hedged: bool = False


def result_key(query_id: str, fragment: int) -> str:
    """Object key of one result part."""
    return f"results/{query_id}/part-{fragment:05d}"


def make_worker_handler(runtime: WorkerRuntime):
    """Build the worker function handler bound to ``runtime``."""

    def worker_handler(context: FunctionContext, payload: dict):
        return (yield from _execute_fragment(runtime, context, payload))

    worker_handler.__name__ = "skyrise_worker"
    return worker_handler


def _execute_fragment(runtime: WorkerRuntime, context: FunctionContext,
                      payload: dict):
    env = context.env
    query_id = payload["query_id"]
    pipeline: PipelineSpec = payload["pipeline"]
    fragment = payload["fragment"]
    base_storage = runtime.storage[payload["table_service"]]
    shuffle_storage = runtime.storage[payload["intermediate_service"]]
    base_io = IoStack(env, base_storage, context.endpoint,
                      cache=runtime.columnar_cache)
    shuffle_io = IoStack(env, shuffle_storage, context.endpoint,
                         cache=runtime.columnar_cache)
    phases: dict[str, float] = {}
    recorder = get_recorder()
    wspan = None
    if recorder.enabled:
        wspan = recorder.start_span(
            f"worker {pipeline.id}/{fragment}", env.now,
            parent=context.trace_ctx, category="worker",
            attrs={"pipeline": pipeline.id, "fragment": fragment,
                   "attempt": payload.get("attempt", 0),
                   "hedged": payload.get("hedged", False)})
        base_io.span = wspan
        shuffle_io.span = wspan

    # Synchronization barrier: all fragments of the pipeline rendezvous
    # before consuming their source (isolates the subflow for timing).
    # ``arrive`` (not ``wait``) tolerates re-executed fragments: a retry
    # can stand in for its crashed predecessor, and a late duplicate
    # passes straight through an already-released barrier.
    if pipeline.barrier:
        barrier = runtime.barriers.get(query_id, pipeline.id,
                                       payload["fragment_count"])
        yield barrier.arrive()

    # Side tables: read fully by every fragment (small dimensions).
    sides: dict[str, RecordBatch] = {}
    for name, spec in payload.get("side_tables", {}).items():
        sides[name] = yield from _read_partitions(
            runtime, context, base_io, spec["partitions"],
            spec["columns"], spec["read_fraction"], None)

    # Source.
    started = env.now
    if isinstance(pipeline.source, TableSource):
        batch = yield from _read_partitions(
            runtime, context, base_io, payload["partitions"],
            pipeline.source.columns, payload["read_fraction"],
            _zone_filter(pipeline.source))
        phases["scan"] = env.now - started
    else:
        batch, shuffle_sides = yield from _read_shuffle(
            runtime, context, shuffle_io, query_id, pipeline.source,
            payload["producer_fragments"], fragment)
        sides.update(shuffle_sides)
        phases["shuffle_read"] = env.now - started
    if wspan is not None:
        recorder.record_span(
            "phase " + ("scan" if isinstance(pipeline.source, TableSource)
                        else "shuffle_read"),
            started, env.now, parent=wspan, category="phase")

    # Operator chain.
    compute_started = env.now
    for operator in pipeline.operators:
        op_started = env.now
        rows_in = len(batch) if wspan is not None else 0
        bytes_in = batch.logical_bytes
        yield context.compute(runtime.cost_model.cpu_seconds(
            operator.cost_class, batch.logical_bytes))
        batch = operator.execute(batch, sides)
        if wspan is not None:
            recorder.record_span(
                type(operator).__name__, op_started, env.now, parent=wspan,
                category="operator",
                attrs={"rows_in": rows_in, "rows_out": len(batch),
                       "bytes_in": bytes_in})
    phases["compute"] = env.now - compute_started
    if wspan is not None:
        recorder.record_span("phase compute", compute_started, env.now,
                             parent=wspan, category="phase")

    # Sink.
    sink_started = env.now
    out_key = None
    if isinstance(pipeline.sink, ShuffleSink):
        yield context.compute(runtime.cost_model.cpu_seconds(
            "encode", batch.logical_bytes))
        writer = ShuffleWriter(shuffle_io, query_id, pipeline.id, fragment,
                               pipeline.sink.partition_key,
                               payload["out_partitions"],
                               epoch=payload.get("epoch", 0))
        yield from writer.write(batch)
    else:
        yield context.compute(runtime.cost_model.cpu_seconds(
            "encode", batch.logical_bytes))
        out_key = result_key(query_id, fragment)
        from repro.formats.columnar import write_file
        yield from shuffle_io.write_object(
            out_key, write_file(batch), max(batch.logical_bytes, 1.0))
    phases["write"] = env.now - sink_started
    if wspan is not None:
        recorder.record_span("phase write", sink_started, env.now,
                             parent=wspan, category="phase")

    # Request-handling CPU overhead.
    total_requests = base_io.stats.requests + shuffle_io.stats.requests
    overhead = runtime.cost_model.request_overhead_s * total_requests
    if overhead > 0:
        yield context.compute(overhead)

    if wspan is not None:
        wspan.finish(
            env.now, rows_out=len(batch), requests=total_requests,
            bytes_read=(base_io.stats.bytes_read
                        + shuffle_io.stats.bytes_read),
            bytes_written=(base_io.stats.bytes_written
                           + shuffle_io.stats.bytes_written))
    return WorkerReport(
        pipeline=pipeline.id, fragment=fragment, rows_out=len(batch),
        requests=total_requests,
        read_requests=(base_io.stats.read_requests
                       + shuffle_io.stats.read_requests),
        write_requests=(base_io.stats.write_requests
                        + shuffle_io.stats.write_requests),
        retried=base_io.stats.retried + shuffle_io.stats.retried,
        bytes_read=base_io.stats.bytes_read + shuffle_io.stats.bytes_read,
        bytes_written=(base_io.stats.bytes_written
                       + shuffle_io.stats.bytes_written),
        request_sizes=(base_io.stats.request_sizes
                       + shuffle_io.stats.request_sizes),
        phases=phases, result_key=out_key,
        attempt=payload.get("attempt", 0),
        hedged=payload.get("hedged", False))


def _zone_filter(source: TableSource):
    if source.zone_map_column is None:
        return None
    low = source.zone_map_low
    high = source.zone_map_high

    def overlaps(chunk_min, chunk_max) -> bool:
        if chunk_min is None or chunk_max is None:
            return True
        if low is not None and chunk_max < low:
            return False
        if high is not None and chunk_min > high:
            return False
        return True

    return {source.zone_map_column: overlaps}


def _read_partitions(runtime: WorkerRuntime, context: FunctionContext,
                     io: IoStack, partitions: list[dict],
                     columns: list[str], read_fraction: float,
                     zone_filters):
    """Process: scan assigned partition files into one batch.

    The I/O thread pool keeps the network drawing continuously: all
    assigned partitions are fetched back-to-back *before* any decoding
    starts, so the token bucket gets no idle refill pauses between
    partitions — which is what makes exceeding the burst budget costly
    (Figure 14). Decoding runs once the data is in.
    """
    env = context.env
    del env
    if not partitions:
        raise ValueError("fragment was assigned zero partitions")
    objects = []
    for info in partitions:
        obj = yield from io.read_object(
            info["key"],
            logical_bytes=info["logical_bytes"] * read_fraction)
        objects.append(obj)
    batches: list[RecordBatch] = []
    for info, obj in zip(partitions, objects):
        logical = info["logical_bytes"] * read_fraction
        yield context.compute(runtime.cost_model.cpu_seconds(
            "decode", logical))
        piece = read_file(obj.payload, columns=columns,
                          zone_map_filters=zone_filters, cache=io.cache,
                          cache_key=(obj.key, obj.version))
        piece.logical_bytes = logical
        batches.append(piece)
    return RecordBatch.concat(batches)


def _read_shuffle(runtime: WorkerRuntime, context: FunctionContext,
                  io: IoStack, query_id: str, source: ShuffleSource,
                  producer_fragments: dict[str, int], fragment: int):
    """Process: read this fragment's slice of every shuffle input."""
    batches: dict[str, RecordBatch] = {}
    for name, upstream in source.inputs.items():
        reader = ShuffleReader(io, query_id, upstream,
                               producer_fragments[upstream], fragment)
        batch = yield from reader.read()
        yield context.compute(runtime.cost_model.cpu_seconds(
            "decode", batch.logical_bytes))
        batches[name] = batch
    main = batches.pop(source.main)
    return main, batches
