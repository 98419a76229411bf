"""ARCH001: the layering contract.

The layer DAG declared in :mod:`repro.lint.layer_dag` is checked on
*every* import — module-level and deferred alike (a function-level
import dodges the import-time cycle but not the coupling).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.framework import Checker, Finding, SourceModule
from repro.lint.layer_dag import ALLOWED, LAYERS

def layer_of(module: str) -> Optional[str]:
    """Layer for a dotted module name (most specific prefix wins).

    The bare ``repro`` prefix matches only the package ``__init__``
    itself, so an unmapped ``repro.<new>`` package resolves to ``None``
    — forcing every new package into the DAG before it can import
    anything.
    """
    best_prefix, best_layer = "", None
    for layer in sorted(LAYERS):
        for prefix in LAYERS[layer]:
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > len(best_prefix):
                    best_prefix, best_layer = prefix, layer
    if best_prefix == "repro" and module != "repro":
        return None
    return best_layer


def _import_targets(node: ast.AST, module: Optional[str],
                    is_package_init: bool) -> list[str]:
    """Dotted ``repro.*`` modules an import statement reaches for.

    For ``from pkg import name`` the more specific ``pkg.name`` is
    preferred when the DAG maps it (so ``from repro import units`` is a
    ``util`` dependency, not a dependency on the root facade).
    """
    targets: list[str] = []
    if isinstance(node, ast.Import):
        targets = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level > 0:
            if module is None:
                return []
            parts = module.split(".")
            package = parts if is_package_init else parts[:-1]
            drop = node.level - 1
            if drop > len(package):
                return []
            prefix = package[:len(package) - drop]
            base = ".".join(prefix + ([node.module] if node.module else []))
        base_layer = layer_of(base) if base else None
        for alias in node.names:
            specific = f"{base}.{alias.name}"
            specific_layer = layer_of(specific) if alias.name != "*" else None
            # `from repro import units` names the submodule, not the
            # facade: attribute the edge to the more specific layer.
            if specific_layer is not None and specific_layer != base_layer:
                targets.append(specific)
            else:
                targets.append(base)
    return [t for t in targets if t == "repro" or t.startswith("repro.")]


class LayerChecker(Checker):
    """ARCH001 — imports must respect the declared layer DAG.

    An upward import changes no simulated output, so no pin sees it; it
    turns the layering into a suggestion and then into an import cycle.
    """

    id = "ARCH001"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if module.module is None or not (
                module.module == "repro"
                or module.module.startswith("repro.")):
            return
        source_layer = layer_of(module.module)
        if source_layer is None:
            yield module.finding(
                module.tree, self.id,
                f"module '{module.module}' is not assigned to any layer; "
                f"add it to repro.lint.layer_dag.LAYERS")
            return
        allowed = frozenset(ALLOWED[source_layer]) | {source_layer}
        is_init = module.path.endswith("__init__.py")
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _import_targets(node, module.module, is_init):
                target_layer = layer_of(target)
                if target_layer is None:
                    yield module.finding(
                        node, self.id,
                        f"import of '{target}' resolves to no layer; add "
                        f"it to repro.lint.layer_dag.LAYERS")
                elif target_layer not in allowed:
                    yield module.finding(
                        node, self.id,
                        f"layer '{source_layer}' may not import layer "
                        f"'{target_layer}' (module '{target}'); allowed "
                        f"layers: {', '.join(sorted(allowed))}")
