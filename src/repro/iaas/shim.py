"""Lambda-compatible shim: run function handlers on VM worker slots.

The paper's framework uses "a shim layer that resembles the Lambda
execution environment to run functions on VM hosts" (Section 3.1), so the
same coordinator/worker binaries execute in both deployments. The shim
queues fragments and distributes them across the available worker slots
(Section 3.2) — there are no coldstarts, but parallelism is bounded by
the provisioned cluster.

Control-plane binaries (the query coordinator and invokers) run on the
cluster's head node without occupying worker slots; otherwise concurrent
queries could occupy every slot with coordinators and deadlock waiting
for their own workers.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.faas.function import FunctionConfig, FunctionContext, InvocationRecord
from repro.iaas.fleet import VmInstance
from repro.sim import Environment, Resource

#: Function names treated as control plane (run on the head node, no
#: worker slot).
DEDICATED_FUNCTIONS = ("skyrise-coordinator", "skyrise-invoker")


class VmShim:
    """Executes Lambda-style handlers on a provisioned VM cluster."""

    def __init__(self, env: Environment, instances: list[VmInstance],
                 slots_per_vm: int = 1) -> None:
        if not instances:
            raise ValueError("shim needs at least one instance")
        if slots_per_vm <= 0:
            raise ValueError("slots_per_vm must be positive")
        self.env = env
        self.instances = list(instances)
        self.slots_per_vm = slots_per_vm
        self._slots = Resource(env, capacity=len(instances) * slots_per_vm)
        self._next_vm = 0
        self._functions: dict[str, FunctionConfig] = {}
        self.records: list[InvocationRecord] = []

    def deploy(self, config: FunctionConfig) -> None:
        """Register a function binary with the shim."""
        self._functions[config.name] = config

    def function(self, name: str) -> FunctionConfig:
        """Look up a deployed function."""
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"function {name!r} is not deployed on the shim")

    @property
    def head_node(self) -> VmInstance:
        """The instance hosting control-plane binaries."""
        return self.instances[0]

    def invoke(self, name: str, payload: Any = None):
        """Process: run ``name`` on the cluster; re-raises handler errors.

        Worker binaries queue for a free VM slot ("the shim queues and
        distributes the fragments across the available worker slots");
        dedicated control-plane binaries run on the head node directly.
        """
        config = self.function(name)
        requested_at = self.env.now
        if name in DEDICATED_FUNCTIONS:
            record = yield from self._run(config, payload, requested_at,
                                          self.head_node)
        else:
            with self._slots.request() as slot:
                yield slot
                vm = self._pick_vm()
                record = yield from self._run(config, payload, requested_at,
                                              vm)
        if record.error is not None:
            raise record.error
        return record

    def _run(self, config: FunctionConfig, payload: Any,
             requested_at: float, vm: VmInstance):
        started_at = self.env.now
        context = FunctionContext(
            env=self.env, platform=self, config=config,
            endpoint=vm.endpoint, sandbox_id=vm.id, cold=False)
        error: Optional[BaseException] = None
        response = None
        try:
            response = yield self.env.process(
                config.handler(context, payload), name=f"vm-fn-{config.name}")
        except BaseException as exc:  # noqa: BLE001 - recorded on the record
            error = exc
        record = InvocationRecord(
            function=config.name, sandbox_id=vm.id, cold=False,
            requested_at=requested_at, started_at=started_at,
            finished_at=self.env.now, response=response, error=error)
        self.records.append(record)
        return record

    def _pick_vm(self) -> VmInstance:
        vm = self.instances[self._next_vm % len(self.instances)]
        self._next_vm += 1
        return vm
