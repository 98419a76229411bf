"""The layering contract: which package may import which (ARCH001 data).

This is the single source of truth for the codebase's layer DAG. A
module is assigned to a layer by the *most specific* prefix match in
:data:`LAYERS`; an import is legal iff the target's layer is the
importer's own layer or one named in :data:`ALLOWED` for it.

The load-bearing rules, from the bottom up:

* ``sim`` is the deterministic kernel — it imports nothing but
  ``units``; telemetry attaches through ``Environment.set_monitor``,
  never through an import.
* ``telemetry`` is a passive leaf every layer may observe through, but
  it must never import the things it observes.
* ``core`` (the experiment driver) never imports ``engine``,
  ``serve``, ``chaos``, or ``workloads``; higher layers register
  themselves with the driver (``Driver.register_kind``).
* Package ``__init__`` re-export facades count as the *highest* layer
  they re-export (``repro.serve``'s facade pulls in
  ``serve.service``, so importing the facade is a ``service``-layer
  dependency; depend on ``repro.serve.gateway`` etc. directly from
  lower layers).

Pure data — keep it free of imports and logic so the DAG stays
reviewable in one diff hunk.
"""

from __future__ import annotations

#: Layer name → module-name prefixes assigned to it. ``repro`` matches
#: the bare package ``__init__`` only (an unknown ``repro.<new>``
#: package is an ARCH001 finding until it is added here).
LAYERS: dict[str, tuple[str, ...]] = {
    "util": ("repro", "repro.units"),
    "analysis": ("repro.analysis",),
    "telemetry": ("repro.telemetry",),
    "formats": ("repro.formats",),
    "sim": ("repro.sim",),
    "lint": ("repro.lint",),
    "network": ("repro.network",),
    "storage": ("repro.storage",),
    "pricing": ("repro.pricing",),
    "datagen": ("repro.datagen",),
    "faas": ("repro.faas",),
    "iaas": ("repro.iaas",),
    "chaos": ("repro.chaos",),
    "futures": ("repro.futures",),
    "engine": ("repro.engine",),
    "core": ("repro.core",),
    "serve": ("repro.serve.gateway", "repro.serve.scheduler",
              "repro.serve.metrics", "repro.serve.warm_pool"),
    "workloads": ("repro.workloads",),
    "shard": ("repro.shard",),
    #: The obs core (SLO engine, sampler, flight recorder, profiler) is
    #: passive: it observes timestamps and spans, never the simulation.
    "obs": ("repro.obs",),
    #: Observed-replay scenarios sit above the sharded fabric (the
    #: facade stays obs-layer; ``repro.obs.scenario`` must be imported
    #: directly, like ``repro.serve.service``).
    "obsflow": ("repro.obs.scenario",),
    "service": ("repro.serve", "repro.serve.service", "repro.chaos.runner"),
    "app": ("repro.cli", "repro.__main__"),
}

#: Layer → layers it may import (own layer is always allowed).
ALLOWED: dict[str, tuple[str, ...]] = {
    "util": (),
    "analysis": ("util",),
    "telemetry": ("util",),
    "formats": ("util",),
    "sim": ("util",),
    "lint": ("util", "telemetry"),
    "network": ("util", "sim", "telemetry"),
    "storage": ("util", "sim", "network", "telemetry"),
    "pricing": ("util", "storage"),
    "datagen": ("util", "formats", "storage"),
    "faas": ("util", "sim", "network", "pricing", "telemetry"),
    "iaas": ("util", "sim", "network", "pricing", "faas"),
    "chaos": ("util", "sim", "storage", "telemetry"),
    "futures": ("util", "sim", "network", "storage", "pricing", "faas",
                "chaos", "telemetry"),
    "engine": ("util", "sim", "network", "storage", "formats", "datagen",
               "faas", "pricing", "telemetry"),
    "core": ("util", "sim", "network", "storage", "faas", "iaas",
             "pricing", "telemetry"),
    "serve": ("util", "analysis", "pricing", "telemetry"),
    "workloads": ("util", "analysis", "sim", "datagen", "faas", "iaas",
                  "pricing", "core", "engine", "serve", "telemetry"),
    "shard": ("util", "analysis", "sim", "chaos", "serve", "workloads",
              "telemetry"),
    "obs": ("util", "analysis", "pricing", "telemetry"),
    "obsflow": ("util", "analysis", "sim", "chaos", "serve", "workloads",
                "shard", "pricing", "obs", "telemetry"),
    "service": ("util", "analysis", "sim", "network", "storage", "formats",
                "datagen", "faas", "iaas", "pricing", "chaos", "engine",
                "core", "serve", "workloads", "obs", "telemetry"),
    "app": ("util", "analysis", "sim", "network", "storage", "formats",
            "datagen", "faas", "iaas", "pricing", "chaos", "futures",
            "engine", "core", "serve", "workloads", "shard", "obs",
            "obsflow", "service", "lint", "telemetry"),
}
