"""Multi-tenant query serving layer (toward the ROADMAP north star).

The paper evaluates Skyrise one query at a time; its economic analysis
(Section 5.2) only bites under sustained multi-query traffic, where
concurrent queries contend for the account-level Lambda concurrency
quota. This package adds the missing serving tier between workload
generators and :class:`~repro.engine.SkyriseEngine`:

* :mod:`repro.serve.gateway` — multi-tenant submission with per-tenant
  concurrency quotas and admission control (queue or shed);
* :mod:`repro.serve.scheduler` — a simulated scheduler process with
  pluggable dispatch policies (FIFO, priority classes, weighted fair
  share) and a global concurrency governor that respects the account
  quota modeled in :mod:`repro.faas.platform`, and ``serve_arrivals``,
  the one DES serving harness (gateway, scheduler, timed submissions,
  drain) that tenant mixes and the arrival workloads both run on;
* :mod:`repro.serve.warm_pool` — keep-alive pings that hold sandboxes
  hot between arrivals, trading ping cost against coldstart latency;
* :mod:`repro.serve.metrics` — the ``ServingTally``: offered, shed,
  completed, failed and within-SLO counts, cost, queue wait and a
  latency store, kept per tenant here and per shard by
  :mod:`repro.shard`, and the fleet ``roll_up`` of shard tallies;
* :mod:`repro.serve.service` — end-to-end serving runs of Poisson
  tenant mixes over the simulated platform.
"""

import importlib

#: Where each exported name lives. The package imports nothing
#: itself (PEP 562): a name loads its own submodule on first use,
#: so a gateway client (the shard layer) does not load the DES stack
#: ``service`` runs on.
_EXPORTS = {
    "QueryGateway": "gateway",
    "QueryRequest": "gateway",
    "Tenant": "gateway",
    "QuerySample": "metrics",
    "ServingTally": "metrics",
    "cost_per_query": "metrics",
    "roll_up": "metrics",
    "POLICIES": "scheduler",
    "ConcurrencyGovernor": "scheduler",
    "FairSharePolicy": "scheduler",
    "FifoPolicy": "scheduler",
    "PriorityPolicy": "scheduler",
    "QueryScheduler": "scheduler",
    "make_policy": "scheduler",
    "serve_arrivals": "scheduler",
    "ServingOutcome": "service",
    "TenantWorkload": "service",
    "default_tenant_mix": "service",
    "run_serving_workload": "service",
    "WarmPoolManager": "warm_pool",
    "WarmPoolStats": "warm_pool",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
