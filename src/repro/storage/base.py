"""Common machinery for serverless storage service simulators.

A :class:`StorageService` really stores payloads (the query engine keeps
its Parquet-like files and shuffle intermediates in them) and exposes two
request paths:

* a **discrete** path (:meth:`StorageService.get` / :meth:`put`), simulated
  per request with admission control, a sampled first-byte latency, and a
  data transfer over the network fabric — used by the query engine and
  latency experiments;
* a **fluid** path (:meth:`StorageService.offer_load`), which admits an
  aggregate request *rate* over a time step — used by the IOPS scaling
  experiments, whose paper originals issue tens of millions of requests
  (far beyond per-event simulation).

Every request — successes, throttles, timeouts, retries — is counted in
:class:`RequestStats`, mirroring the paper's client hook for cost
accounting (Section 4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.network.fabric import Endpoint, Fabric, FluidLink
from repro.sim import Environment, RandomStreams
from repro.storage.errors import NoSuchKey
from repro.storage.latency import LatencyModel
from repro.telemetry import get_recorder


class RequestType(enum.Enum):
    """Kind of storage request, for accounting and pricing."""

    GET = "get"
    PUT = "put"


@dataclass
class StorageObject:
    """A stored value plus its metadata.

    ``size`` is the *logical* byte size used for timing and pricing; it may
    exceed ``len(payload)`` when the dataset scale knob models larger files
    than are physically materialized.
    """

    key: str
    payload: Any
    size: float
    created_at: float
    version: int = 0


@dataclass
class RequestStats:
    """Aggregate request accounting (the paper's client-side hook)."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    #: Optional observer ``(op, outcome, count, nbytes)`` invoked on every
    #: record — the telemetry recorder hooks in here so one accounting
    #: site feeds both cost reporting and metrics.
    on_record: Optional[Any] = None

    def record(self, op: RequestType, outcome: str, count: int = 1,
               nbytes: float = 0.0) -> None:
        """Count ``count`` requests of ``op`` with the given outcome."""
        key = (op.value, outcome)
        self.counts[key] = self.counts.get(key, 0) + count
        if outcome == "ok":
            if op is RequestType.GET:
                self.bytes_read += nbytes
            else:
                self.bytes_written += nbytes
        if self.on_record is not None:
            self.on_record(op, outcome, count, nbytes)

    def total(self, op: Optional[RequestType] = None,
              outcome: Optional[str] = None) -> int:
        """Total requests matching the (optional) op/outcome filters."""
        total = 0
        for (op_name, out_name), count in self.counts.items():
            if op is not None and op_name != op.value:
                continue
            if outcome is not None and out_name != outcome:
                continue
            total += count
        return total

    @property
    def successes(self) -> int:
        """Requests that completed successfully."""
        return self.total(outcome="ok")

    @property
    def failures(self) -> int:
        """Requests that were throttled, timed out, or otherwise failed."""
        return self.total() - self.successes


@dataclass
class FluidAdmission:
    """Outcome of one fluid-load step: admitted/rejected request rates."""

    accepted_read: float
    rejected_read: float
    accepted_write: float
    rejected_write: float

    @property
    def read_error_rate(self) -> float:
        """Fraction of offered reads that were rejected."""
        offered = self.accepted_read + self.rejected_read
        return self.rejected_read / offered if offered else 0.0


class StorageService:
    """Base class for the storage simulators.

    Subclasses configure latency models, service-level bandwidth caps, and
    implement admission control via :meth:`_admit_one` (discrete path) and
    :meth:`_admit_rate` (fluid path).
    """

    #: Human-readable service name, overridden by subclasses.
    name = "storage"

    def __init__(self, env: Environment, fabric: Fabric,
                 rng: RandomStreams,
                 read_latency: LatencyModel, write_latency: LatencyModel,
                 read_bandwidth: Optional[float] = None,
                 write_bandwidth: Optional[float] = None,
                 max_item_size: Optional[float] = None) -> None:
        self.env = env
        self.fabric = fabric
        self.endpoint: Endpoint = fabric.endpoint(f"{self.name}-frontend")
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.read_link: Optional[FluidLink] = (
            fabric.link(read_bandwidth, name=f"{self.name}-read")
            if read_bandwidth else None)
        self.write_link: Optional[FluidLink] = (
            fabric.link(write_bandwidth, name=f"{self.name}-write")
            if write_bandwidth else None)
        self.max_item_size = max_item_size
        self.stats = RequestStats()
        self._rng = rng.stream(f"storage.{self.name}")
        self._objects: dict[str, StorageObject] = {}
        #: Chaos hook: ``hook(op, key, now)`` returning an error to
        #: inject for this request, or ``None``. Default: no injection.
        self.fault_hook = None
        recorder = get_recorder()
        self._telemetry = recorder if recorder.enabled else None
        if self._telemetry is not None:
            self.stats.on_record = self._record_metric

    def _record_metric(self, op: RequestType, outcome: str, count: int,
                       nbytes: float) -> None:
        """Telemetry observer wired into :class:`RequestStats`."""
        if count <= 0:
            return
        recorder = self._telemetry
        recorder.counter(
            f"storage.{self.name}.{op.value}.{outcome}").value += count
        if outcome in ("throttled", "timeout", "injected-fault"):
            recorder.event(self.env.now, f"storage.{outcome}",
                           category="storage", service=self.name,
                           op=op.value, count=count)

    # -- discrete request path ----------------------------------------------

    def check_fault(self, op: RequestType, key: str) -> None:
        """Raise an injected fault for this request, if one strikes.

        Injected errors count in :class:`RequestStats` like real
        failures (the request reached the service frontend), under the
        dedicated ``injected-fault`` outcome.
        """
        if self.fault_hook is None:
            return
        error = self.fault_hook(op.value, key, self.env.now)
        if error is not None:
            self.stats.record(op, "injected-fault")
            try:
                raise error
            finally:
                # Or this frame, kept by the traceback, keeps the error.
                del error

    def get(self, key: str, endpoint: Optional[Endpoint] = None):
        """Process: read the object at ``key``.

        Returns the :class:`StorageObject`. Raises the service's throttle
        error type if admission fails, :class:`NoSuchKey` if absent.
        """
        self.check_fault(RequestType.GET, key)
        self._admit_one(RequestType.GET, key)
        obj = self._objects.get(key)
        if obj is None:
            self.stats.record(RequestType.GET, "missing")
            raise NoSuchKey(key)
        latency = self.read_latency.sample_one(self._rng)
        yield self.env.timeout(latency)
        yield from self._transfer(RequestType.GET, obj.size, endpoint)
        self.stats.record(RequestType.GET, "ok", nbytes=obj.size)
        return obj

    def get_range(self, key: str, offset: float, length: float,
                  endpoint: Optional[Endpoint] = None):
        """Process: read ``length`` bytes of ``key`` starting at ``offset``.

        The simulated ranged GET (``Range: bytes=...``): billed and
        admitted like any GET, but only the requested bytes cross the
        fabric. The range is clamped to the object's logical size, so a
        tail chunk shorter than the request succeeds with fewer bytes.
        Returns a :class:`StorageObject` view whose ``size`` is the
        byte count actually read; the payload is sliced when the object
        physically materializes its logical bytes, and shared otherwise.
        """
        if offset < 0 or length < 0:
            raise ValueError(f"range [{offset}, +{length}) is invalid")
        self.check_fault(RequestType.GET, key)
        self._admit_one(RequestType.GET, key)
        obj = self._objects.get(key)
        if obj is None:
            self.stats.record(RequestType.GET, "missing")
            raise NoSuchKey(key)
        nbytes = max(0.0, min(float(length), obj.size - offset))
        latency = self.read_latency.sample_one(self._rng)
        yield self.env.timeout(latency)
        yield from self._transfer(RequestType.GET, nbytes, endpoint)
        self.stats.record(RequestType.GET, "ok", nbytes=nbytes)
        payload = obj.payload
        if isinstance(payload, (bytes, bytearray, str)) \
                and len(payload) == obj.size:
            payload = payload[int(offset):int(offset + nbytes)]
        return StorageObject(key=key, payload=payload, size=nbytes,
                             created_at=obj.created_at, version=obj.version)

    def put(self, key: str, payload: Any, size: Optional[float] = None,
            endpoint: Optional[Endpoint] = None):
        """Process: write ``payload`` under ``key``.

        ``size`` overrides the logical byte size (defaults to
        ``len(payload)`` when the payload supports it, else 0).
        Returns the stored :class:`StorageObject`.
        """
        nbytes = float(size if size is not None else _payload_size(payload))
        if self.max_item_size is not None and nbytes > self.max_item_size:
            self.stats.record(RequestType.PUT, "too-large")
            self._reject_too_large(nbytes)
        self.check_fault(RequestType.PUT, key)
        self._admit_one(RequestType.PUT, key)
        latency = self.write_latency.sample_one(self._rng)
        yield self.env.timeout(latency)
        yield from self._transfer(RequestType.PUT, nbytes, endpoint)
        previous = self._objects.get(key)
        obj = StorageObject(key=key, payload=payload, size=nbytes,
                            created_at=self.env.now,
                            version=(previous.version + 1) if previous else 0)
        self._objects[key] = obj
        self.stats.record(RequestType.PUT, "ok", nbytes=nbytes)
        return obj

    def delete(self, key: str) -> None:
        """Remove ``key`` if present (no latency modelled; free in AWS)."""
        self._objects.pop(key, None)

    def exists(self, key: str) -> bool:
        """Whether ``key`` currently holds an object."""
        return key in self._objects

    def list_keys(self, prefix: str = "") -> list[str]:
        """All keys starting with ``prefix``, sorted."""
        return sorted(key for key in self._objects if key.startswith(prefix))

    def head(self, key: str) -> StorageObject:
        """Metadata-only lookup (no latency modelled)."""
        obj = self._objects.get(key)
        if obj is None:
            raise NoSuchKey(key)
        return obj

    @property
    def stored_bytes(self) -> float:
        """Sum of logical sizes of all stored objects."""
        return sum(obj.size for obj in self._objects.values())

    # -- fluid request path ---------------------------------------------------

    def offer_load(self, read_iops: float, write_iops: float,
                   elapsed: float, now: float | None = None) -> FluidAdmission:
        """Admit an aggregate request rate over ``elapsed`` seconds.

        ``now`` overrides the admission timestamp for time-stepped
        drivers that advance analytic time outside the event loop;
        defaults to the simulation clock. Updates partition/burst state
        and request accounting; returns the accepted and rejected rates.
        """
        admission = self._admit_rate(read_iops, write_iops, elapsed,
                                     self.env.now if now is None else now)
        self.stats.record(RequestType.GET, "ok",
                          count=int(admission.accepted_read * elapsed))
        self.stats.record(RequestType.GET, "throttled",
                          count=int(admission.rejected_read * elapsed))
        self.stats.record(RequestType.PUT, "ok",
                          count=int(admission.accepted_write * elapsed))
        self.stats.record(RequestType.PUT, "throttled",
                          count=int(admission.rejected_write * elapsed))
        return admission

    # -- vectorized latency sampling ------------------------------------------

    def sample_latencies(self, op: RequestType, count: int) -> np.ndarray:
        """Draw ``count`` request latencies without simulating each request.

        Used by the latency distribution experiment (Figure 10), whose
        paper original issues one million requests per service at low load
        — statistically equivalent to direct sampling.
        """
        model = self.read_latency if op is RequestType.GET else self.write_latency
        self.stats.record(op, "ok", count=count)
        return model.sample(self._rng, size=count)

    # -- subclass hooks ---------------------------------------------------------

    def _admit_one(self, op: RequestType, key: str) -> None:
        """Admission control for a single discrete request.

        Raise the service's throttle error to reject. Default: admit.
        """

    def _admit_rate(self, read_iops: float, write_iops: float,
                    elapsed: float, now: float) -> FluidAdmission:
        """Admission control for the fluid path. Default: admit everything."""
        return FluidAdmission(accepted_read=read_iops, rejected_read=0.0,
                              accepted_write=write_iops, rejected_write=0.0)

    def _reject_too_large(self, nbytes: float) -> None:
        from repro.storage.errors import ItemTooLarge
        raise ItemTooLarge(
            f"{self.name}: item of {nbytes:.0f} B exceeds the "
            f"{self.max_item_size:.0f} B limit")

    # -- helpers -----------------------------------------------------------------

    def _transfer(self, op: RequestType, nbytes: float,
                  endpoint: Optional[Endpoint]):
        """Move the payload bytes across the fabric (if any)."""
        if nbytes <= 0:
            return
        link = self.read_link if op is RequestType.GET else self.write_link
        links = (link,) if link is not None else ()
        if endpoint is None:
            # No client endpoint given: only the service-side cap applies.
            if link is None:
                return
            src = self.endpoint if op is RequestType.GET else None
            flow = (self.fabric.transfer(self.endpoint,
                                         self.fabric.endpoint("anon"),
                                         nbytes, links)
                    if src is not None else
                    self.fabric.transfer(self.fabric.endpoint("anon"),
                                         self.endpoint, nbytes, links))
            yield flow.done
            return
        if op is RequestType.GET:
            flow = self.fabric.transfer(self.endpoint, endpoint, nbytes, links)
        else:
            flow = self.fabric.transfer(endpoint, self.endpoint, nbytes, links)
        yield flow.done


def _payload_size(payload: Any) -> float:
    """Best-effort physical size of a payload in bytes."""
    if payload is None:
        return 0.0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return float(len(payload))
    if isinstance(payload, str):
        return float(len(payload.encode("utf-8")))
    if hasattr(payload, "nbytes"):
        return float(payload.nbytes)
    return 0.0
