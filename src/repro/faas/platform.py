"""The Lambda platform: frontend, admission, assignment, placement.

Invocation path (Figure 1): the frontend checks the admission service
(account concurrency quota and burst/ramp scaling), asks the assignment
service for a warm sandbox, and falls back to the placement service which
creates a new environment — a *coldstart* that downloads and initializes
the binary. Asynchronous invocations pass through the polling service,
adding queueing latency.
"""

from __future__ import annotations

import itertools
import math

from typing import Any, Optional

from repro import units
from repro.network.fabric import Fabric, FluidLink
from repro.network.shaper import lambda_shaper
from repro.sim import AnyOf, Environment, RandomStreams
from repro.faas.function import FunctionConfig, FunctionContext, InvocationRecord
from repro.faas.regions import REGIONS, RegionProfile
from repro.faas.sandbox import Sandbox
from repro.faas.scaling import ConcurrencyScaler
from repro.telemetry import get_recorder

#: Placement overhead of creating a fresh environment (seconds).
COLDSTART_PLACEMENT_S = 0.060
#: Effective bandwidth for fetching the function binary during placement.
COLDSTART_DOWNLOAD_RATE = 50 * units.MiB
#: Runtime/initialization overhead after the binary is in place.
COLDSTART_INIT_S = 0.030
#: Probability of a coldstart straggler (Section 5.2 mentions occasional
#: coldstart stragglers, in particular for the coordinator).
COLDSTART_STRAGGLER_P = 0.02
COLDSTART_STRAGGLER_FACTOR = 8.0

#: Routing overhead of a warmstart: load balancing, assignment, and
#: payload delivery take ~25 ms even when the sandbox is hot — the
#: per-stage startup overhead behind the FaaS runtime penalty of
#: Section 5.2.
WARMSTART_S = 0.025

#: Extra latency of the polling service for async invocations/events.
ASYNC_POLL_S = 0.025

#: Idle sandbox lifetime: median ~6 minutes, broadly spread.
IDLE_LIFETIME_MEDIAN_S = 360.0
IDLE_LIFETIME_SIGMA = 0.5

#: Re-check interval while waiting for concurrency to scale up.
ADMISSION_RETRY_S = 1.0

#: Handler time billed by a keep-alive ping (a no-op invocation that
#: only refreshes the sandbox's idle timer).
KEEPALIVE_PING_S = 0.010


class LambdaPlatform:
    """Simulated AWS Lambda in one region."""

    def __init__(self, env: Environment, fabric: Fabric, rng: RandomStreams,
                 region: str = "us-east-1",
                 account_quota: int = 1_000,
                 vpc_link: Optional[FluidLink] = None) -> None:
        self.env = env
        self.fabric = fabric
        self.region: RegionProfile = (
            REGIONS[region] if isinstance(region, str) else region)
        self.account_quota = account_quota
        self.vpc_link = vpc_link
        self.scaler = ConcurrencyScaler(account_quota=account_quota)
        self._functions: dict[str, FunctionConfig] = {}
        self._warm: dict[str, list[Sandbox]] = {}
        self._busy = 0
        self.records: list[InvocationRecord] = []
        self._rng = rng.stream(f"faas.{self.region.name}")
        #: Chaos hook (:class:`repro.chaos.injector.FaultInjector` or
        #: anything with the same ``on_invoke``/``on_place`` surface).
        #: ``None`` means no injection — the default, fault-free path.
        self.fault_injector = None
        self._telemetry = recorder = get_recorder()
        if recorder is not None:
            self._cold_counter = recorder.counter("lambda.cold_starts")
            self._warm_counter = recorder.counter("lambda.warm_starts")
            self._concurrent_gauge = recorder.gauge("lambda.concurrent")
            self._concurrent_series = recorder.timeseries(
                "lambda.concurrent", min_dt=0.001)
        self._sandbox_ids = itertools.count()

    def _note_busy(self) -> None:
        """Sample the concurrency watermark after a busy-count change."""
        self._concurrent_gauge.set(float(self._busy))
        self._concurrent_series.sample(self.env.now, float(self._busy))

    # -- deployment ----------------------------------------------------------

    def deploy(self, config: FunctionConfig) -> None:
        """Register a function (idempotent for the same name)."""
        self._functions[config.name] = config
        self._warm.setdefault(config.name, [])

    def function(self, name: str) -> FunctionConfig:
        """Look up a deployed function."""
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"function {name!r} is not deployed") from None

    # -- invocation -----------------------------------------------------------

    def invoke(self, name: str, payload: Any = None):
        """Process: synchronously invoke ``name`` with ``payload``.

        Returns the :class:`InvocationRecord`; a handler exception is
        recorded and re-raised.
        """
        record = yield from self._invoke(name, payload,
                                         requested_at=self.env.now)
        if record.error is not None:
            raise record.error
        return record

    def invoke_async(self, name: str, payload: Any = None):
        """Process: invoke via the polling service (extra latency).

        Returns the record; errors are captured on it, not raised (an
        async caller never observes them directly).
        """
        requested_at = self.env.now
        yield self.env.timeout(ASYNC_POLL_S)
        record = yield from self._invoke(name, payload,
                                         requested_at=requested_at)
        return record

    def _invoke(self, name: str, payload: Any, requested_at: float):
        config = self.function(name)
        span = None
        if self._telemetry is not None:
            parent = payload.get("trace") if isinstance(payload, dict) else None
            attrs = {"function": name,
                     "memory_mb": round(config.memory_bytes / units.MiB, 3)}
            if isinstance(payload, dict):
                if "attempt" in payload:
                    attrs["attempt"] = payload["attempt"]
                if "hedged" in payload:
                    attrs["hedged"] = payload["hedged"]
            span = self._telemetry.start_span(
                f"invoke {name}", requested_at, parent=parent,
                category="faas", attrs=attrs)
        # Chaos hook: one fault (at most) may strike this invocation.
        fault = None
        if self.fault_injector is not None:
            fault = self.fault_injector.on_invoke(name, payload, self.env.now)
        if fault is not None and fault.kind == "invoke_throttle" \
                and fault.delay_s > 0:
            # Frontend pushback: the request queues before admission, so
            # the delay adds latency but is never billed.
            yield self.env.timeout(fault.delay_s)
        # Admission: wait for concurrency (burst + 500/min ramp + quota).
        while not self.scaler.admit(self._busy, self.env.now):
            yield self.env.timeout(ADMISSION_RETRY_S)
        self._busy += 1
        if self._telemetry is not None:
            self._note_busy()
        sandbox, cold = self._assign(config)
        sandbox.busy = True
        lost = False
        try:
            startup_began = self.env.now
            if cold:
                yield self.env.timeout(self._coldstart_duration(config))
            else:
                yield self.env.timeout(WARMSTART_S)
            started_at = self.env.now
            if self._telemetry is not None:
                (self._cold_counter if cold else self._warm_counter).inc()
                self._telemetry.record_span(
                    "coldstart" if cold else "warmstart",
                    startup_began, started_at, parent=span, category="faas",
                    attrs={"sandbox_id": sandbox.id})
            context = FunctionContext(
                env=self.env, platform=self, config=config,
                endpoint=sandbox.endpoint, sandbox_id=sandbox.id,
                cold=cold, region=self.region.name, trace_ctx=span)
            response = None
            error: Optional[BaseException] = None
            if fault is not None and fault.kind == "worker_crash":
                # The invocation dies before the handler produces a
                # result; the brief run-up is still billed.
                if fault.delay_s > 0:
                    yield self.env.timeout(fault.delay_s)
                error = fault.make_error()
            else:
                if fault is not None and fault.kind == "invoke_straggler" \
                        and fault.delay_s > 0:
                    # Delayed handler start inside the sandbox (billed).
                    yield self.env.timeout(fault.delay_s)
                handler_process = self.env.process(
                    config.handler(context, payload), name=f"fn-{name}")
                try:
                    if fault is not None and fault.kind == "sandbox_loss":
                        # Race the handler against sandbox reclamation.
                        doom = self.env.timeout(fault.after_s)
                        yield AnyOf(self.env, [handler_process, doom])
                        if handler_process.processed:
                            response = handler_process.value
                        else:
                            handler_process.interrupt("sandbox lost")
                            handler_process.defuse()
                            error = fault.make_error()
                            lost = True
                    else:
                        response = yield handler_process
                except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
                    error = exc
            record = InvocationRecord(
                function=name, sandbox_id=sandbox.id, cold=cold,
                requested_at=requested_at, started_at=started_at,
                finished_at=self.env.now, response=response, error=error)
            self.records.append(record)
            if span is not None:
                span.finish(self.env.now, cold=cold,
                            sandbox_id=sandbox.id,
                            ok=error is None)
                self._telemetry.histogram(
                    "lambda.invoke.duration_s").record(
                        self.env.now - requested_at)
            return record
        finally:
            sandbox.busy = False
            sandbox.last_used_at = self.env.now
            sandbox.invocations += 1
            if not lost:
                # A sandbox reclaimed by a sandbox_loss fault is gone —
                # re-pooling it would let a later invocation warmstart
                # on infrastructure that no longer exists.
                self._warm[name].append(sandbox)
            self._busy -= 1
            if self._telemetry is not None:
                self._note_busy()

    # -- warm pools ----------------------------------------------------------

    def keep_alive(self, name: str, count: int = 1):
        """Process: ping up to ``count`` sandboxes of ``name`` to stay warm.

        The standard provisioning trick on Lambda: periodic no-op
        invocations reset the idle-reclamation timer, so later real
        invocations warmstart instead of paying the coldstart path.
        Each ping is billed like a (very short) invocation; a ping that
        finds no idle sandbox *creates* one — paying the coldstart now,
        off the latency path of real traffic. Pings are skipped (not
        queued) when the account has no concurrency headroom, so a warm
        pool never throttles live queries.

        Returns ``{"hits": refreshed, "misses": created, "skipped": n}``.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        stats = {"hits": 0, "misses": 0, "skipped": 0}
        pings = []
        for _ in range(count):
            if not self.scaler.admit(self._busy, self.env.now):
                stats["skipped"] += 1
                continue
            self._busy += 1
            if self._telemetry is not None:
                self._note_busy()
            sandbox, cold = self._assign(self.function(name))
            sandbox.busy = True
            stats["misses" if cold else "hits"] += 1
            pings.append(self.env.process(
                self._ping(name, sandbox, cold), name=f"ping-{name}"))
        for ping in pings:
            yield ping
        return stats

    def _ping(self, name: str, sandbox: Sandbox, cold: bool):
        config = self.function(name)
        requested_at = self.env.now
        try:
            if cold:
                yield self.env.timeout(self._coldstart_duration(config))
            else:
                yield self.env.timeout(WARMSTART_S)
            started_at = self.env.now
            yield self.env.timeout(KEEPALIVE_PING_S)
            self.records.append(InvocationRecord(
                function=name, sandbox_id=sandbox.id, cold=cold,
                requested_at=requested_at, started_at=started_at,
                finished_at=self.env.now, response="keep-alive"))
        finally:
            sandbox.busy = False
            sandbox.last_used_at = self.env.now
            sandbox.invocations += 1
            self._warm[name].append(sandbox)
            self._busy -= 1
            if self._telemetry is not None:
                self._note_busy()

    # -- assignment / placement -------------------------------------------------

    def _assign(self, config: FunctionConfig) -> tuple[Sandbox, bool]:
        """Route to a warm sandbox or create a fresh one (coldstart)."""
        now = self.env.now
        pool = self._warm[config.name]
        # Reclaim expired sandboxes lazily. Every pooled sandbox is idle,
        # so expiry only turns on as time passes: the first live sandbox
        # popped off the end is the one a full filter would leave last.
        while pool:
            sandbox = pool.pop()
            if not sandbox.expired(now):
                return sandbox, False
        return self._place(config), True

    def _place(self, config: FunctionConfig) -> Sandbox:
        links = (self.vpc_link,) if self.vpc_link is not None else ()
        endpoint = self.fabric.endpoint(
            f"sandbox-{config.name}",
            ingress=lambda_shaper("in"), egress=lambda_shaper("out"),
            links=links)
        if self.fault_injector is not None:
            factor = self.fault_injector.on_place(config.name, self.env.now)
            if factor is not None:
                # Degraded placement: this sandbox drew a slow NIC.
                if endpoint.ingress is not None:
                    endpoint.ingress.degrade(factor)
                if endpoint.egress is not None:
                    endpoint.egress.degrade(factor)
        idle_lifetime = float(self._rng.lognormal(
            mean=math.log(IDLE_LIFETIME_MEDIAN_S),
            sigma=IDLE_LIFETIME_SIGMA))
        sandbox = Sandbox(function=config.name, endpoint=endpoint,
                          created_at=self.env.now,
                          idle_lifetime=idle_lifetime,
                          id=next(self._sandbox_ids))
        if self._telemetry is not None:
            self._telemetry.counter("lambda.sandboxes_placed").value += 1
            self._telemetry.event(
                self.env.now, "sandbox.placed", category="faas",
                function=config.name,
                sandbox_id=sandbox.id)
        return sandbox

    def _coldstart_duration(self, config: FunctionConfig) -> float:
        base = (COLDSTART_PLACEMENT_S
                + config.binary_bytes / COLDSTART_DOWNLOAD_RATE
                + COLDSTART_INIT_S)
        base *= self.region.startup_multiplier
        base *= self.region.congestion(self._rng, self.env.now, warm=False)
        if self._rng.random() < COLDSTART_STRAGGLER_P:
            base *= COLDSTART_STRAGGLER_FACTOR
        # Per-coldstart jitter on top of regional conditions.
        base *= float(self._rng.lognormal(mean=0.0, sigma=0.15))
        return base
