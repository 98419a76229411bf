"""Physical query plans: pipelines, sources, sinks.

A plan is a DAG of pipelines (Section 3.2). Each pipeline names a source
(a base-table scan or the shuffle output of upstream pipelines), a chain
of physical operators, and a sink (hash-partitioned shuffle write, or the
query result). The driver submits plans as JSON; the coordinator decides
the number of data-parallel fragments per pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.operators import Operator, operator_from_dict


@dataclass
class TableSource:
    """Scan a catalog table with projection (and zone-map predicate)."""

    table: str
    columns: list[str]
    #: Optional predicate evaluated via zone maps for row-group skipping
    #: (the full predicate is still applied by a FilterOperator).
    zone_map_column: Optional[str] = None
    zone_map_low: Optional[float] = None
    zone_map_high: Optional[float] = None

    def to_dict(self) -> dict:
        return {"kind": "table", "table": self.table, "columns": self.columns,
                "zone_map_column": self.zone_map_column,
                "zone_map_low": self.zone_map_low,
                "zone_map_high": self.zone_map_high}


@dataclass
class ShuffleSource:
    """Read this fragment's partition from upstream shuffle outputs.

    ``inputs`` maps a local name to the producing pipeline id; workers
    receive each input as a separate batch (the first is the main input,
    the rest become side inputs for joins).
    """

    inputs: dict[str, str]
    main: str

    def to_dict(self) -> dict:
        return {"kind": "shuffle", "inputs": self.inputs, "main": self.main}


@dataclass
class ShuffleSink:
    """Hash-partition output rows by a key into the next stage's fragments.

    ``partition_key=None`` routes everything to partition zero (global
    aggregations funnel into a single final fragment).
    """

    partition_key: Optional[str] = None

    def to_dict(self) -> dict:
        return {"kind": "shuffle", "partition_key": self.partition_key}


@dataclass
class ResultSink:
    """Write this fragment's output as (part of) the query result."""

    def to_dict(self) -> dict:
        return {"kind": "result"}


@dataclass
class PipelineSpec:
    """One pipeline: source -> operators -> sink, with dependencies."""

    id: str
    source: TableSource | ShuffleSource
    operators: list[Operator] = field(default_factory=list)
    sink: ShuffleSink | ResultSink = field(default_factory=ResultSink)
    depends_on: list[str] = field(default_factory=list)
    #: Fragment count; ``None`` = coordinator decides (burst-aware).
    fragments: Optional[int] = None
    #: Small tables every fragment reads fully (e.g. a dimension for a
    #: broadcast join or a UDF lookup table). name -> table name.
    side_tables: dict[str, str] = field(default_factory=dict)
    #: Synchronization barrier before the source is consumed; used to
    #: isolate subflows like distributed shuffles (Section 3.2).
    barrier: bool = False

    def to_dict(self) -> dict:
        # Memoized per instance: serving replays the same plan objects
        # for every request of a tenant, and a stable dict identity lets
        # the coordinator and workers memoize their parses. Treat the
        # returned dict (and the spec after serializing) as read-only.
        cached = getattr(self, "_as_dict", None)
        if cached is not None:
            return cached
        data = {
            "id": self.id,
            "source": self.source.to_dict(),
            "operators": [op.to_dict() for op in self.operators],
            "sink": self.sink.to_dict(),
            "depends_on": self.depends_on,
            "fragments": self.fragments,
            "side_tables": self.side_tables,
            "barrier": self.barrier,
        }
        self._as_dict = data
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineSpec":
        return cls(
            id=data["id"],
            source=source_from_dict(data["source"]),
            operators=[operator_from_dict(op) for op in data["operators"]],
            sink=sink_from_dict(data["sink"]),
            depends_on=list(data["depends_on"]),
            fragments=data["fragments"],
            side_tables=dict(data["side_tables"]),
            barrier=data["barrier"],
        )


@dataclass
class PhysicalPlan:
    """A complete query plan."""

    query_id: str
    pipelines: list[PipelineSpec]

    def __post_init__(self) -> None:
        ids = [p.id for p in self.pipelines]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate pipeline ids in plan: {ids}")
        known = set(ids)
        for pipeline in self.pipelines:
            for dep in pipeline.depends_on:
                if dep not in known:
                    raise ValueError(
                        f"pipeline {pipeline.id!r} depends on unknown "
                        f"pipeline {dep!r}")

    def pipeline(self, pipeline_id: str) -> PipelineSpec:
        """Look up a pipeline by id."""
        for pipeline in self.pipelines:
            if pipeline.id == pipeline_id:
                return pipeline
        raise KeyError(f"no pipeline {pipeline_id!r}")

    def stages(self) -> list[list[PipelineSpec]]:
        """Topologically ordered stages of concurrently runnable pipelines."""
        remaining = {p.id: set(p.depends_on) for p in self.pipelines}
        done: set[str] = set()
        ordered: list[list[PipelineSpec]] = []
        while remaining:
            ready = [pid for pid, deps in remaining.items()
                     if deps <= done]
            if not ready:
                raise ValueError("cyclic pipeline dependencies")
            ordered.append([self.pipeline(pid) for pid in ready])
            for pid in ready:
                del remaining[pid]
                done.add(pid)
        return ordered

    @property
    def final_pipeline(self) -> PipelineSpec:
        """The pipeline producing the query result."""
        finals = [p for p in self.pipelines
                  if isinstance(p.sink, ResultSink)]
        if len(finals) != 1:
            raise ValueError(f"plan must have exactly one result pipeline, "
                             f"found {len(finals)}")
        return finals[0]

    def to_dict(self) -> dict:
        # Memoized per instance, like PipelineSpec.to_dict.
        cached = getattr(self, "_as_dict", None)
        if cached is not None:
            return cached
        data = {"query_id": self.query_id,
                "pipelines": [p.to_dict() for p in self.pipelines]}
        self._as_dict = data
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PhysicalPlan":
        return cls(query_id=data["query_id"],
                   pipelines=[PipelineSpec.from_dict(p)
                              for p in data["pipelines"]])


class IdentityMemo:
    """Bounded parse memo keyed by dict identity.

    The coordinator shares one spec dict across a stage's fragment
    payloads (and a serving workload resubmits a tenant's plan
    template), so a fan-out of N fragments parses the tree once instead
    of N times. Each entry pins its keyed dict, so an ``id()`` cannot
    be reused while the entry is alive; the identity check guards the
    eviction window.

    Instances live on the runtime objects (``CoordinatorRuntime``,
    ``WorkerRuntime``) rather than at module scope: every run builds
    its own runtimes, so a run starts with an empty memo and what one
    run cached or evicted cannot change what the next one parses
    (CONC001).
    """

    def __init__(self, parse, max_entries: int = 64) -> None:
        self._parse = parse
        self._max = max_entries
        self._entries: dict[int, tuple[dict, object]] = {}

    def get(self, data: dict):
        """Parse ``data`` (memoized by identity)."""
        key = id(data)  # repro-lint: disable=DET004 identity memo key, never ordered
        hit = self._entries.get(key)
        if hit is not None and hit[0] is data:
            return hit[1]
        value = self._parse(data)
        if len(self._entries) >= self._max:
            self._entries.clear()
        self._entries[key] = (data, value)
        return value


def plan_memo() -> IdentityMemo:
    """A fresh plan-parse memo (one per coordinator runtime)."""
    return IdentityMemo(PhysicalPlan.from_dict, max_entries=64)


def source_from_dict(data: dict) -> TableSource | ShuffleSource:
    """Rebuild a source spec."""
    if data["kind"] == "table":
        return TableSource(table=data["table"], columns=data["columns"],
                           zone_map_column=data["zone_map_column"],
                           zone_map_low=data["zone_map_low"],
                           zone_map_high=data["zone_map_high"])
    if data["kind"] == "shuffle":
        return ShuffleSource(inputs=dict(data["inputs"]), main=data["main"])
    raise ValueError(f"unknown source kind {data['kind']!r}")


def sink_from_dict(data: dict) -> ShuffleSink | ResultSink:
    """Rebuild a sink spec."""
    if data["kind"] == "shuffle":
        return ShuffleSink(partition_key=data["partition_key"])
    if data["kind"] == "result":
        return ResultSink()
    raise ValueError(f"unknown sink kind {data['kind']!r}")


# Re-export for the package namespace: plans and aggregation specs are the
# two things query builders touch most.
from repro.engine.operators.aggregate import AggSpec  # noqa: E402,F401
