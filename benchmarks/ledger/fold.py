"""Fold a cProfile recording into self time and calls per layer.

A frame of a module under ``src/repro/`` belongs to that module's layer,
as ``repro.lint`` assigns it (``layer_dag.LAYERS``, most specific prefix
wins). Every other frame — C builtins, numpy, the standard library,
dataclass-generated methods — has no layer of its own and is charged to
whoever called it: cProfile records, for each caller, the calls and self
time of each callee, so a foreign frame called from ``repro.network``
counts as ``network``. A foreign frame called by another foreign frame
inherits that caller's split over the layers, in proportion to call
counts. Frames nobody profiled called (the ledger's own body wrapper)
land in ``other``, with every layer the ledger does not name.

Only counts weigh the split, never times, and frames are visited in
name order, so ``calls`` is the same number on every run of the same
program; ``self_s`` moves with the host.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.lint.arch import layer_of

#: The layers the ledger reports; the rest of ``layer_dag.LAYERS`` and
#: all unattributable frames fold into ``other``.
NAMED_LAYERS = ("sim", "network", "storage", "formats", "engine", "faas",
                "serve", "shard", "telemetry", "obs")
OTHER = "other"
LAYERS = NAMED_LAYERS + (OTHER,)

#: Passes of the caller-split iteration; foreign call chains are a few
#: frames deep (numpy wrappers, ``heapq`` → ``__lt__``), so the split
#: settles long before this.
_PASSES = 12


def module_of(filename: str, src_root: Path) -> Optional[str]:
    """Dotted module name of a file under ``src_root``, else ``None``."""
    try:
        relative = Path(filename).resolve().relative_to(src_root.resolve())
    except (ValueError, OSError):
        return None
    if relative.suffix != ".py":
        return None
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or None


def ledger_layer(module: str) -> str:
    """The ledger layer of a ``repro`` module."""
    layer = layer_of(module)
    return layer if layer in NAMED_LAYERS else OTHER


def _frame_key(code) -> tuple:
    if isinstance(code, str):
        return ("", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def fold(stats, src_root: Path) -> dict:
    """Per-layer ``{"self_s": float, "calls": int}`` from ``getstats()``."""
    layer_cache: dict[str, Optional[str]] = {}

    def frame_layer(key: tuple) -> Optional[str]:
        filename = key[0]
        if filename not in layer_cache:
            module = module_of(filename, src_root) if filename else None
            layer_cache[filename] = ledger_layer(module) if module else None
        return layer_cache[filename]

    # Merge entries that share a name (lambdas and generators of one
    # line) so that the visiting order depends on names alone.
    own: dict[tuple, list] = {}            # key -> [calls, self_s]
    edges: dict[tuple, dict] = {}          # callee -> caller -> [calls, self_s]
    for entry in stats:
        caller = _frame_key(entry.code)
        totals = own.setdefault(caller, [0, 0.0])
        totals[0] += entry.callcount
        totals[1] += entry.inlinetime
        for sub in entry.calls or ():
            edge = edges.setdefault(_frame_key(sub.code), {}).setdefault(
                caller, [0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.inlinetime

    foreign = sorted(key for key in own if frame_layer(key) is None)
    # split[frame][layer]: share of a foreign frame's calls that each
    # layer caused. Starts as "all unattributed" and is refined from the
    # callers' own splits.
    split = {key: {OTHER: 1.0} for key in foreign}
    for _ in range(_PASSES):
        refined = {}
        for key in foreign:
            shares = dict.fromkeys(LAYERS, 0.0)
            seen = 0
            for caller in sorted(edges.get(key, ())):
                calls = edges[key][caller][0]
                seen += calls
                layer = frame_layer(caller)
                if layer is not None:
                    shares[layer] += calls
                else:
                    for name, share in split[caller].items():
                        shares[name] += calls * share
            total = max(own[key][0], seen)
            shares[OTHER] += total - seen
            refined[key] = {name: value / total
                            for name, value in shares.items() if value}
        split = refined

    folded = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for key in sorted(own):
        calls, self_s = own[key]
        layer = frame_layer(key)
        if layer is not None:
            folded[layer]["self_s"] += self_s
            folded[layer]["calls"] += calls
            continue
        seen_calls, seen_s = 0, 0.0
        for caller in sorted(edges.get(key, ())):
            edge_calls, edge_s = edges[key][caller]
            seen_calls += edge_calls
            seen_s += edge_s
            caller_layer = frame_layer(caller)
            shares = ({caller_layer: 1.0} if caller_layer is not None
                      else split[caller])
            for name, share in shares.items():
                folded[name]["self_s"] += edge_s * share
                folded[name]["calls"] += edge_calls * share
        folded[OTHER]["self_s"] += max(0.0, self_s - seen_s)
        folded[OTHER]["calls"] += max(0, calls - seen_calls)
    for totals in folded.values():
        totals["calls"] = round(totals["calls"])
    return folded
