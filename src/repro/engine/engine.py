"""The Skyrise engine facade: deployment, query execution, accounting.

Ties the pieces together: deploys the coordinator, worker, and invoker
function binaries onto an execution backend (the Lambda platform or the
EC2 shim — Figure 4's two execution modes), submits physical plans, and
assembles :class:`QueryResult` objects with runtime, per-stage statistics,
and an itemized cost estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import units
from repro.datagen.datasets import TableMetadata
from repro.engine.barrier import BarrierRegistry
from repro.engine.coordinator import (
    CoordinatorRuntime,
    StageReport,
    make_coordinator_handler,
    make_invoker_handler,
)
from repro.engine.cost import classify_attempt
from repro.engine.plan import PhysicalPlan
from repro.engine.worker import WorkerRuntime, make_worker_handler
from repro.faas.function import FunctionConfig
from repro.faas.supervisor import RecoveryPolicy
from repro.formats.batch import RecordBatch
from repro.formats.columnar import ColumnarCache
from repro.pricing.calculator import CostCalculator
from repro.pricing.catalog import STORAGE_PRICES
from repro.sim import Environment
from repro.storage.base import StorageService
from repro.telemetry import get_recorder

#: Worker sizing used throughout the paper's query experiments:
#: 4 vCPUs and 7,076 MiB of RAM (Sections 4.5 and 5.2).
WORKER_MEMORY = 7_076 * units.MiB
COORDINATOR_MEMORY = 3_538 * units.MiB
INVOKER_MEMORY = 1_769 * units.MiB


@dataclass
class QueryResult:
    """Outcome of one query execution."""

    query_id: str
    runtime: float
    batch: RecordBatch
    stages: list[StageReport]
    fragments: dict[str, int]
    #: Billed function-seconds summed over coordinator + workers.
    cumulated_time: float
    cost_cents: float
    compute_cost_cents: float
    storage_cost_cents: float
    requests: int
    request_sizes: list[float] = field(default_factory=list)
    #: Recovery accounting (zero everywhere in fault-free runs).
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    failed_attempts: int = 0
    #: Compute cost of non-primary attempts (retries, hedges, failed
    #: attempts) — included in :attr:`cost_cents`.
    retry_cost_cents: float = 0.0
    recovery_events: list[dict] = field(default_factory=list)

    @property
    def peak_fragments(self) -> int:
        """Widest stage of the query."""
        return max(self.fragments.values())

    def peak_to_average_nodes(self) -> float:
        """Intra-query elasticity ratio (Section 5.2)."""
        total_time = sum(stage.duration for stage in self.stages)
        if total_time <= 0:
            return 1.0
        weighted = sum(stage.fragments * stage.duration
                       for stage in self.stages)
        return self.peak_fragments / (weighted / total_time)

    def shuffle_time(self) -> float:
        """Max shuffle-read duration across stages (Figure 15)."""
        return max((stage.shuffle_read_time_max for stage in self.stages),
                   default=0.0)


class SkyriseEngine:
    """Serverless query engine over simulated cloud infrastructure."""

    def __init__(self, env: Environment, backend,
                 storage: dict[str, StorageService],
                 intermediate_service: str = "s3-standard",
                 recovery: Optional[RecoveryPolicy] = None) -> None:
        self.env = env
        self.backend = backend
        self.storage = storage
        self.intermediate_service = intermediate_service
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.catalog: dict[str, TableMetadata] = {}
        self.barriers = BarrierRegistry(env)
        #: Read cache shared by every worker of this engine. Workers in
        #: the real system would each hold one per sandbox; a single
        #: shared cache models the steady state where every warm sandbox
        #: has seen the working set, without per-sandbox memory tracking.
        self.columnar_cache = ColumnarCache()
        self._deployed = False

    # -- setup -------------------------------------------------------------

    def register_table(self, metadata: TableMetadata) -> None:
        """Add a table to the engine catalog."""
        self.catalog[metadata.name] = metadata

    def deploy(self, target_worker_input: Optional[float] = None) -> None:
        """Deploy the coordinator, worker, and invoker binaries.

        The binaries are generic — "the deployment artifacts are not
        specialized towards any query" (Section 3.2) — so one deployment
        serves the whole query suite and stays warm across queries.
        """
        worker_runtime = WorkerRuntime(
            storage=self.storage, barriers=self.barriers,
            intermediate_service=self.intermediate_service,
            columnar_cache=self.columnar_cache)
        coordinator_runtime = CoordinatorRuntime(
            catalog=self.catalog, backend=self.backend,
            worker_function="skyrise-worker",
            invoker_function="skyrise-invoker",
            intermediate_service=self.intermediate_service,
            recovery=self.recovery)
        if target_worker_input is not None:
            coordinator_runtime.target_worker_input = target_worker_input
        self._coordinator_runtime = coordinator_runtime
        self.backend.deploy(FunctionConfig(
            name="skyrise-worker", handler=make_worker_handler(worker_runtime),
            memory_bytes=WORKER_MEMORY, binary_bytes=8 * units.MiB))
        self.backend.deploy(FunctionConfig(
            name="skyrise-coordinator",
            handler=make_coordinator_handler(coordinator_runtime),
            memory_bytes=COORDINATOR_MEMORY, binary_bytes=8 * units.MiB))
        self.backend.deploy(FunctionConfig(
            name="skyrise-invoker",
            handler=make_invoker_handler(coordinator_runtime),
            memory_bytes=INVOKER_MEMORY, binary_bytes=2 * units.MiB))
        self._deployed = True

    # -- execution -----------------------------------------------------------

    def run_query(self, plan: PhysicalPlan):
        """Process: execute ``plan``; returns a :class:`QueryResult`."""
        if not self._deployed:
            raise RuntimeError("call deploy() before run_query()")
        record_start = len(self.backend.records)
        recorder = get_recorder()
        payload = {"plan": plan}
        root = None
        if recorder is not None:
            root = recorder.start_trace(
                f"query {plan.query_id}", self.env.now,
                attrs={"query_id": plan.query_id})
            payload["trace"] = root
        record = yield from self.backend.invoke("skyrise-coordinator", payload)
        response = record.response
        # Lost hedge races may still be running: the coordinator already
        # returned (its runtime excludes them, like a real coordinator
        # that stopped listening), but they must be billed. Drain them so
        # their records land inside this query's billing window.
        yield from response["recovery"].drain()
        batch = self._fetch_result(response["result_keys"])
        self.barriers.clear(plan.query_id)
        new_records = self.backend.records[record_start:]
        result = self._assemble(plan, record, response, batch, new_records)
        if root is not None:
            root.finish(self.env.now, runtime=result.runtime,
                        cost_cents=result.cost_cents)
        return result

    def _fetch_result(self, result_keys: list[str]):
        """The result parts, handed over by reference and concatenated."""
        service = self.storage[self.intermediate_service]
        batches = []
        for key in result_keys:
            part = service.head(key).payload
            batches.append(RecordBatch(part.schema, part.columns))
        return RecordBatch.concat(batches)

    def _assemble(self, plan, record, response, batch, records) -> QueryResult:
        calculator = CostCalculator()
        recovery_calculator = CostCalculator()
        cumulated = 0.0
        for invocation in records:
            config = self.backend.function(invocation.function)
            cumulated += invocation.duration
            calculator.add_function_invocation(config.memory_bytes,
                                               invocation.duration)
            # Non-primary attempts (failed, retried, hedged) bill like
            # any other invocation; itemize them so the resilience
            # report can state the cost of recovery.
            if classify_attempt(invocation) != "primary":
                recovery_calculator.add_function_invocation(
                    config.memory_bytes, invocation.duration)
        requests = 0
        read_requests = write_requests = 0
        request_sizes: list[float] = []
        bytes_read = bytes_written = 0.0
        for stage in response["stages"]:
            requests += stage.requests
            read_requests += stage.read_requests
            write_requests += stage.write_requests
            request_sizes.extend(stage.request_sizes)
            bytes_read += stage.bytes_read
            bytes_written += stage.bytes_written
        pricing = STORAGE_PRICES[self.intermediate_service]
        storage_cost = (pricing.read_cost(read_requests, bytes_read)
                        + pricing.write_cost(write_requests, bytes_written))
        compute_cost = calculator.cost.total
        # The invocation record keeps the response: let the supervisor go.
        recovery = response.pop("recovery")
        return QueryResult(
            query_id=plan.query_id,
            runtime=response["runtime"],
            batch=batch,
            stages=response["stages"],
            fragments=response["fragments"],
            cumulated_time=cumulated,
            cost_cents=(compute_cost + storage_cost) * 100.0,
            compute_cost_cents=compute_cost * 100.0,
            storage_cost_cents=storage_cost * 100.0,
            requests=requests,
            request_sizes=request_sizes,
            retries=recovery.retries,
            hedges=recovery.hedges,
            hedge_wins=recovery.hedge_wins,
            failed_attempts=recovery.failed_attempts,
            retry_cost_cents=recovery_calculator.cost.total * 100.0,
            recovery_events=recovery.events)
