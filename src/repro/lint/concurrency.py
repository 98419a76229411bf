"""CONC001 — run isolation: no state survives a run in a module global.

The repo is one single-process deterministic program, and its gates
lean on runs being independent of each other inside one interpreter:
the ledger asserts that k repeats of a workload are bit-identical,
every hypothesis property runs its body hundreds of times, and tier-1
runs a thousand tests in one process. A module global written from
function scope is state the *next* run inherits — a memo that answers
from the previous run's inputs, a counter that never resets, a registry
that keeps growing. PR 9's worker ``_SPEC_CACHE`` was that bug: a parse
memo at module scope, so what one query cached changed what the next
one did. State a run mutates belongs on an object the run owns
(runtime, environment, router), so a fresh run starts from nothing.

The check runs over every module. Module-scope mutations (building a
constant table at import time) are exempt — imports happen once, before
any run exists; state that is process-wide on purpose takes a reasoned
suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.determinism import import_aliases, resolve_dotted
from repro.lint.framework import Checker, Finding, SourceModule

#: Method calls that mutate a container in place.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "insert",
    "extend", "extendleft", "remove", "discard", "pop", "popitem",
    "popleft", "clear", "__setitem__",
})

#: Calls that build a mutable container.
MUTABLE_FACTORIES = frozenset({
    "dict", "list", "set", "collections.defaultdict", "collections.deque",
    "collections.Counter", "collections.OrderedDict",
})


def _is_mutable(node: ast.expr, aliases: dict[str, str]) -> bool:
    """Whether a module-level binding is a mutable container."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) \
                and node.func.id in MUTABLE_FACTORIES:
            return True
        return resolve_dotted(node.func, aliases) in MUTABLE_FACTORIES
    return False


class _Mutations(ast.NodeVisitor):
    """One pass: module-scope mutable bindings, then writes to them
    from function scope (in-place mutation, or a ``global`` rebind)."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases = import_aliases(tree)
        self.mutable: set[str] = set()
        #: ``(node, name, scope, kind)`` per write.
        self.sites: list[tuple[ast.AST, str, str, str]] = []
        self._scope: list[str] = []
        #: Per enclosing function: (names bound locally, names declared
        #: ``global``); the innermost function is last.
        self._functions: list[tuple[set[str], set[str]]] = []

    def _record(self, node: ast.AST, name: str, kind: str) -> None:
        self.sites.append((node, name, ".".join(self._scope), kind))

    def _is_global_container(self, name: str) -> bool:
        assigned, declared = self._functions[-1]
        return name in self.mutable \
            and (name not in assigned or name in declared)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def _visit_function(self, node) -> None:
        self._scope.append(node.name)
        args = node.args
        params = {arg.arg for arg in (args.posonlyargs + args.args
                                      + args.kwonlyargs)}
        params.update(arg.arg for arg in (args.vararg, args.kwarg)
                      if arg is not None)
        self._functions.append((params, set()))
        self.generic_visit(node)
        self._functions.pop()
        self._scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Global(self, node: ast.Global) -> None:
        if self._functions:
            self._functions[-1][1].update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._bind(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind([node.target], node.value, node)
        self.generic_visit(node)

    def _bind(self, targets: list, value: ast.expr, node: ast.stmt) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not self._scope and _is_mutable(value, self.aliases):
            self.mutable.update(names)
        if self._functions:
            assigned, declared = self._functions[-1]
            assigned.update(names)
            for name in names:
                if name in declared:
                    self._record(node, name, "rebound")

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name) and self._functions \
                and node.target.id in self._functions[-1][1]:
            self._record(node, node.target.id, "mutated in place")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)) \
                and isinstance(node.value, ast.Name) and self._functions \
                and self._is_global_container(node.value.id):
            self._record(node, node.value.id, "mutated in place")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in MUTATING_METHODS \
                and isinstance(func.value, ast.Name) and self._functions \
                and self._is_global_container(func.value.id):
            self._record(node, func.value.id, "mutated in place")
        self.generic_visit(node)


class SharedStateChecker(Checker):
    """CONC001 — module globals mutated from function scope."""

    id = "CONC001"
    title = "run isolation: mutable module state"
    severity = "warning"
    rationale = (
        "A module global written from function scope outlives the run "
        "that wrote it: the next run in the same interpreter (a ledger "
        "repeat, a hypothesis example, the next test) starts from the "
        "previous one's leftovers, so 'same seed, same outcome' holds "
        "only for the first. State a run mutates must live on an "
        "object the run owns (runtime, environment, router) so every "
        "run gets its own.")
    example_bad = (
        "_READS: dict[str, RecordBatch] = {}\n"
        "def scan(engine, key, file):\n"
        "    _READS[key] = file.read()   # survives into the next run\n")
    example_good = (
        "class SkyriseEngine:\n"
        "    def __init__(self):\n"
        "        self.columnar_cache = ColumnarCache()\n"
        "def scan(engine, key, file):\n"
        "    return engine.columnar_cache.read(key, file)  # run-owned\n")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        visitor = _Mutations(module.tree)
        visitor.visit(module.tree)
        for node, name, scope, kind in visitor.sites:
            yield module.finding(
                node, self.id,
                f"module-global '{name}' is {kind} in '{scope}' — it "
                f"outlives the run that wrote it, so the next run in "
                f"this interpreter inherits it; move the state onto a "
                f"run-owned object", severity=self.severity)
