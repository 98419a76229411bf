"""Physical query plans: pipelines, sources, sinks.

A plan is a DAG of pipelines (Section 3.2). Each pipeline names a source
(a base-table scan or the shuffle output of upstream pipelines), a chain
of physical operators, and a sink (hash-partitioned shuffle write, or the
query result). The driver hands the coordinator the plan object itself,
and the coordinator hands each worker its ``PipelineSpec``; both treat
what they are handed as read-only. The coordinator decides the number of
data-parallel fragments per pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.operators import Operator


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


@dataclass
class ShuffleSource:
    """Read this fragment's partition from upstream shuffle outputs.

    ``inputs`` maps a local name to the producing pipeline id; workers
    receive each input as a separate batch (the first is the main input,
    the rest become side inputs for joins).
    """

    inputs: dict[str, str]
    main: str


@dataclass
class ShuffleSink:
    """Hash-partition output rows by a key into the next stage's fragments.

    ``partition_key=None`` routes everything to partition zero (global
    aggregations funnel into a single final fragment).
    """

    partition_key: Optional[str] = None


@dataclass
class ResultSink:
    """Write this fragment's output as (part of) the query result."""


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


# Re-export for the package namespace: plans and aggregation specs are the
# two things query builders touch most.
from repro.engine.operators.aggregate import AggSpec  # noqa: E402,F401
