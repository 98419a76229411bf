"""Phase 1 of the whole-program analysis: the project index.

Per-module checkers (:mod:`repro.lint.determinism`, ``arch``) see one
file at a time and are blind to the bugs that live between files: an
RNG constructed in one layer and drawn from in another, a span opened
in one function and leaked by its caller. The two-phase design fixes
that:

* **Phase 1** (:class:`ModuleIndexer`) walks every file's AST exactly
  once and distills it into a module index — a small, plain-data
  summary: RNG construction and draw sites, module-global mutation
  sites, resource open/close/escape sites per function, and bound call
  edges.
* **Phase 2** (:class:`ProjectIndex` + :class:`ProjectChecker`
  subclasses) stitches the summaries into cross-module structures — an
  RNG provenance map, a returns-open-resource fixpoint over the call
  graph — and emits :class:`~repro.lint.framework.Finding` rows through
  the same suppression / baseline / canonical-ordering pipeline as
  phase 1.

Phase 2 is pure function of the set of module indexes, so lint output
is independent of file discovery order — a property test pins this.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.lint.determinism import WALL_CLOCK_CALLS, import_aliases, \
    resolve_dotted
from repro.lint.framework import (
    Checker,
    Finding,
    SourceModule,
    analyze_module,
    apply_suppressions,
    iter_python_files,
)

#: Calls that construct a *local, seedable* RNG object. Provenance of
#: these objects is what DET005 tracks.
RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "repro.sim.rng.RandomStreams",
})

#: Methods that consume randomness from an RNG object. Drawing through
#: one of these on a generator that lives in another layer is a DET005
#: cross-layer draw.
RNG_DRAW_METHODS = frozenset({
    "random", "randint", "randrange", "uniform", "triangular",
    "choice", "choices", "sample", "shuffle", "normal", "gauss",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "integers", "standard_normal", "exponential", "poisson",
    "permutation", "permuted", "bytes", "binomial", "geometric",
    "zipf", "stream",
})

#: Method names that *open* a resource the caller must settle, mapped
#: to the method names that settle it. ``start_span``/``start_trace``
#: return live spans (``repro.telemetry.recorder``); ``acquire`` /
#: ``open_resource`` cover sim resources and fixture code.
RESOURCE_PROTOCOLS: dict[str, tuple[str, ...]] = {
    "start_span": ("finish",),
    "start_trace": ("finish",),
    "acquire": ("release",),
    "open_resource": ("close", "drain"),
}

#: Every method name that settles *some* protocol — used when the open
#: happened in a callee and the concrete protocol is unknown here.
RESOURCE_CLOSERS = frozenset(
    closer for closers in RESOURCE_PROTOCOLS.values() for closer in closers)

#: Modules whose own internals implement the resource protocols (the
#: recorder hands out spans; it does not leak them).
RESOURCE_HOME_PREFIXES = ("repro.telemetry",)

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


def _is_mutable_literal(node: ast.expr, aliases: dict[str, str]) -> bool:
    """Whether a module-level binding is a mutable container."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = resolve_dotted(node.func, aliases)
        if dotted in MUTABLE_FACTORIES:
            return True
        if isinstance(node.func, ast.Name) \
                and node.func.id in MUTABLE_FACTORIES:
            return True
    return False


def _call_name(node: ast.Call, aliases: dict[str, str],
               local_defs: frozenset[str], module: Optional[str]
               ) -> Optional[str]:
    """Best-effort dotted target of a call, for the call graph.

    A bare name defined in this module resolves to
    ``<module>.<name>``; an import-bound name resolves through the
    alias table; receiver-based calls (``self.f()``) stay unresolved.
    """
    if isinstance(node.func, ast.Name):
        if node.func.id in local_defs and module:
            return f"{module}.{node.func.id}"
        return aliases.get(node.func.id)
    return resolve_dotted(node.func, aliases)


def _contains_unstable_seed(node: ast.expr, aliases: dict[str, str]
                            ) -> Optional[str]:
    """The unstable source inside a seed expression, if any.

    ``hash()`` is salted per process (PYTHONHASHSEED), ``id()`` is a
    memory address, and wall clocks are wall clocks — none yields the
    same derived seed on the next run.
    """
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        if isinstance(child.func, ast.Name) and child.func.id in ("hash",
                                                                  "id"):
            return f"{child.func.id}()"
        dotted = resolve_dotted(child.func, aliases)
        if dotted in WALL_CLOCK_CALLS:
            return f"{dotted}()"
    return None


class _FunctionSummary:
    """Mutable scratch record for one function scope (JSON-ready)."""

    def __init__(self, qualname: str, lineno: int) -> None:
        self.data = {
            "qualname": qualname,
            "line": lineno,
            # {"name","line","col","method"} — resource open sites.
            "opens": [],
            # name -> sorted list of contexts ("plain" | "except").
            "closes": {},
            # {"name","target","line","col"} — `x = f(...)` call edges.
            "bound_calls": [],
            # Names that leave the function other than by return:
            # stored into attributes/containers or passed to calls.
            "stored": [],
            # Names returned (or yielded) to the caller.
            "returned": [],
            # Names bound by `with ... as name` (self-settling).
            "with_names": [],
            # Names assigned in this scope (locals shadow globals).
            "assigned": [],
            # Names declared `global` in this scope.
            "globals": [],
        }


class ModuleIndexer(ast.NodeVisitor):
    """One AST pass extracting everything phase 2 needs."""

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.aliases = import_aliases(module.tree)
        self.local_defs = frozenset(
            node.name for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)))
        self.index = {
            "path": module.path,
            "module": module.module,
            # Module-level name -> line of an RNG-constructor binding.
            "rng_globals": {},
            # {"target","line","col","method"} — draws through an
            # import-bound dotted chain.
            "rng_draws": [],
            # {"line","col","ctor","via"} — unstable derived seeds.
            "unstable_seeds": [],
            # Module-level name -> line of a mutable-container binding.
            "mutable_globals": {},
            # {"name","scope","line","col","kind"} with kind
            # "mutate" (in-place) or "rebind" (global statement).
            "global_mutations": [],
            # qualname -> function summary (resource lifecycle).
            "functions": {},
        }
        self._scope: list[str] = []
        self._functions: list[_FunctionSummary] = []

    # -- scope bookkeeping -----------------------------------------------------

    @property
    def _in_function(self) -> bool:
        return bool(self._functions)

    @property
    def _fn(self) -> _FunctionSummary:
        return self._functions[-1]

    def _scope_name(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    # -- visitors --------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def _visit_function(self, node) -> None:
        self._scope.append(node.name)
        qualname = self._scope_name()
        summary = _FunctionSummary(qualname, node.lineno)
        summary.data["assigned"].extend(
            arg.arg for arg in (node.args.posonlyargs + node.args.args
                                + node.args.kwonlyargs))
        for arg in (node.args.vararg, node.args.kwarg):
            if arg is not None:
                summary.data["assigned"].append(arg.arg)
        self._functions.append(summary)
        self.generic_visit(node)
        self._functions.pop()
        self.index["functions"][qualname] = summary.data
        self._scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Global(self, node: ast.Global) -> None:
        if self._in_function:
            self._fn.data["globals"].extend(node.names)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_binding(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_binding([node.target], node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name) and self._in_function \
                and node.target.id in self._fn.data["globals"]:
            self._record_global_mutation(node.target.id, node, "mutate")
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._record_with(node)
        self.generic_visit(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._record_with(node)
        self.generic_visit(node)

    def _record_with(self, node) -> None:
        if not self._in_function:
            return
        for item in node.items:
            if isinstance(item.optional_vars, ast.Name):
                self._fn.data["with_names"].append(item.optional_vars.id)

    def visit_Return(self, node: ast.Return) -> None:
        if self._in_function and isinstance(node.value, ast.Name):
            self._fn.data["returned"].append(node.value.id)
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        if self._in_function and isinstance(node.value, ast.Name):
            self._fn.data["returned"].append(node.value.id)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_rng_call(node)
        self._record_resource_call(node)
        self._record_mutation_call(node)
        if self._in_function:
            # Any name passed as an argument escapes our local view.
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name):
                    self._fn.data["stored"].append(arg.id)
                elif isinstance(arg, ast.Starred) \
                        and isinstance(arg.value, ast.Name):
                    self._fn.data["stored"].append(arg.value.id)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._record_subscript_store(node)
        self.generic_visit(node)

    # -- recording helpers -----------------------------------------------------

    def _record_binding(self, targets: list, value: ast.expr,
                        node: ast.stmt) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not self._scope:
            # Module scope: classify the binding.
            for name in names:
                if _is_mutable_literal(value, self.aliases):
                    self.index["mutable_globals"].setdefault(
                        name, node.lineno)
                if isinstance(value, ast.Call):
                    dotted = resolve_dotted(value.func, self.aliases)
                    if dotted in RNG_CONSTRUCTORS:
                        self.index["rng_globals"].setdefault(
                            name, node.lineno)
        if self._in_function:
            fn = self._fn.data
            fn["assigned"].extend(names)
            for name in names:
                if name in fn["globals"]:
                    self._record_global_mutation(name, node, "rebind")
            if isinstance(value, ast.Call) and len(names) == 1:
                target = _call_name(value, self.aliases, self.local_defs,
                                    self.module.module)
                if target is not None:
                    fn["bound_calls"].append(
                        {"name": names[0], "target": target,
                         "line": node.lineno,
                         "col": node.col_offset + 1})
            if isinstance(value, ast.Name):
                # `self.x = name` / `container = name` style aliasing.
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        fn["stored"].append(value.id)

    def _record_subscript_store(self, node: ast.Subscript) -> None:
        base = node.value
        if isinstance(base, ast.Name) and self._in_function:
            if self._is_global_container(base.id):
                self._record_global_mutation(base.id, node, "mutate")

    def _is_global_container(self, name: str) -> bool:
        """Whether ``name`` denotes a module-level mutable, not a local."""
        if name not in self.index["mutable_globals"]:
            return False
        fn = self._fn.data
        return name not in fn["assigned"] or name in fn["globals"]

    def _record_global_mutation(self, name: str, node, kind: str) -> None:
        self.index["global_mutations"].append(
            {"name": name, "scope": self._scope_name(),
             "line": node.lineno, "col": node.col_offset + 1,
             "kind": kind})

    def _record_rng_call(self, node: ast.Call) -> None:
        dotted = resolve_dotted(node.func, self.aliases)
        ctor = None
        if dotted in RNG_CONSTRUCTORS:
            ctor = dotted
        elif isinstance(node.func, ast.Name) \
                and self.aliases.get(node.func.id) in RNG_CONSTRUCTORS:
            ctor = self.aliases[node.func.id]
        if ctor is not None:
            seed_exprs = list(node.args) + [kw.value for kw in node.keywords]
            for expr in seed_exprs:
                via = _contains_unstable_seed(expr, self.aliases)
                if via is not None:
                    self.index["unstable_seeds"].append(
                        {"line": node.lineno, "col": node.col_offset + 1,
                         "ctor": ctor, "via": via})
                    break
        # Draw through an import-bound dotted chain, e.g.
        # `from repro.x import GEN; GEN.random()`.
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in RNG_DRAW_METHODS:
            target = resolve_dotted(node.func.value, self.aliases)
            if target is not None and target.startswith("repro."):
                self.index["rng_draws"].append(
                    {"target": target, "method": node.func.attr,
                     "line": node.lineno, "col": node.col_offset + 1})

    def _record_resource_call(self, node: ast.Call) -> None:
        if not self._in_function:
            return
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        fn = self._fn.data
        if method in RESOURCE_CLOSERS \
                and isinstance(node.func.value, ast.Name):
            context = "except" if self._inside_except(node) else "plain"
            contexts = fn["closes"].setdefault(node.func.value.id, [])
            if context not in contexts:
                contexts.append(context)
                contexts.sort()

    def _record_mutation_call(self, node: ast.Call) -> None:
        if not self._in_function:
            return
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in MUTATING_METHODS:
            return
        base = node.func.value
        if isinstance(base, ast.Name) and self._is_global_container(base.id):
            self._record_global_mutation(base.id, node, "mutate")

    # -- except tracking -------------------------------------------------------

    def visit_Try(self, node: ast.Try) -> None:
        # Mark statements lexically inside except handlers so close
        # calls found there count as error-path-only.
        for handler in node.handlers:
            for child in handler.body:
                for sub in ast.walk(child):
                    sub._repro_in_except = True  # type: ignore[attr-defined]
        self.generic_visit(node)

    @staticmethod
    def _inside_except(node: ast.AST) -> bool:
        return getattr(node, "_repro_in_except", False)

    # -- open-site pass (needs binding info, so runs at the end) ---------------

    def finish(self) -> dict:
        """Final per-module fixups; returns the JSON-ready index."""
        for fn in self.index["functions"].values():
            seen = {(site["name"], site["line"]) for site in fn["opens"]}
            for call in fn["bound_calls"]:
                dotted = call["target"]
                method = dotted.rsplit(".", 1)[-1]
                if method in RESOURCE_PROTOCOLS \
                        and (call["name"], call["line"]) not in seen:
                    fn["opens"].append(
                        {"name": call["name"], "method": method,
                         "line": call["line"], "col": call["col"]})
        return self.index


def build_module_index(module: SourceModule) -> dict:
    """Phase 1 for one module: the JSON-ready :class:`ModuleIndex`."""
    indexer = ModuleIndexer(module)
    indexer.visit(module.tree)
    # Bound resource opens come through method calls too
    # (`recorder.start_span(...)`), which _call_name cannot resolve;
    # collect them in a dedicated pass over the tree.
    _collect_method_opens(module, indexer)
    return indexer.finish()


def _collect_method_opens(module: SourceModule,
                          indexer: ModuleIndexer) -> None:
    """Record ``x = <recv>.start_span(...)``-style open sites."""

    class _Opens(ast.NodeVisitor):
        def __init__(self) -> None:
            self.scope: list[str] = []

        def _fn_data(self) -> Optional[dict]:
            qualname = ".".join(self.scope)
            return indexer.index["functions"].get(qualname)

        def _visit_scope(self, node) -> None:
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = _visit_scope
        visit_AsyncFunctionDef = _visit_scope
        visit_ClassDef = _visit_scope

        def visit_Assign(self, node: ast.Assign) -> None:
            self._record(node.targets, node.value, node)
            self.generic_visit(node)

        def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
            if node.value is not None:
                self._record([node.target], node.value, node)
            self.generic_visit(node)

        def _record(self, targets, value, node) -> None:
            fn = self._fn_data()
            if fn is None or not isinstance(value, ast.Call):
                return
            if not isinstance(value.func, ast.Attribute):
                return
            method = value.func.attr
            if method not in RESOURCE_PROTOCOLS:
                return
            for target in targets:
                if isinstance(target, ast.Name):
                    fn["opens"].append(
                        {"name": target.id, "method": method,
                         "line": node.lineno,
                         "col": node.col_offset + 1})

    _Opens().visit(module.tree)


class ProjectIndex:
    """Phase 2 input: every module's index, stitched together.

    All derived structures are computed from sorted inputs so the index
    — and everything the project checkers emit — is independent of the
    order modules were discovered or loaded in.
    """

    def __init__(self, module_indexes: Iterable[dict]) -> None:
        self.modules: dict[str, dict] = {
            index["module"]: index for index in module_indexes
            if index["module"]}
        self._module_names = sorted(self.modules)
        self.returns_open = self._returns_open_fixpoint()

    # -- name resolution -------------------------------------------------------

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Longest known module that is a prefix of ``dotted``."""
        parts = dotted.split(".")
        for length in range(len(parts), 0, -1):
            candidate = ".".join(parts[:length])
            if candidate in self.modules:
                return candidate
        return None

    def split_symbol(self, dotted: str) -> tuple[Optional[str], str]:
        """Split ``repro.a.b.NAME`` into (module, remainder)."""
        module = self.resolve_module(dotted)
        if module is None:
            return None, dotted
        remainder = dotted[len(module):].lstrip(".")
        return module, remainder

    # -- resource fixpoint -----------------------------------------------------

    def _function_qualnames(self) -> Iterator[tuple[str, str, dict]]:
        for name in self._module_names:
            functions = self.modules[name]["functions"]
            for qualname in sorted(functions):
                yield name, qualname, functions[qualname]

    def _returns_open_fixpoint(self) -> frozenset[str]:
        """Fully-qualified functions that return a still-open resource.

        Seeded with functions whose own open's name is returned without
        a guaranteed close, then propagated along bound-call edges until
        stable: a caller that binds such a result and returns it passes
        the obligation further up.
        """
        returns_open: set[str] = set()
        for module, qualname, fn in self._function_qualnames():
            if self._is_resource_home(module):
                continue
            for site in fn["opens"]:
                if site["name"] in fn["returned"] \
                        and not fn["closes"].get(site["name"]):
                    returns_open.add(f"{module}.{qualname}")
        changed = True
        while changed:
            changed = False
            for module, qualname, fn in self._function_qualnames():
                full = f"{module}.{qualname}"
                if full in returns_open or self._is_resource_home(module):
                    continue
                for call in fn["bound_calls"]:
                    if call["target"] in returns_open \
                            and call["name"] in fn["returned"] \
                            and not fn["closes"].get(call["name"]):
                        returns_open.add(full)
                        changed = True
                        break
        return frozenset(returns_open)

    @staticmethod
    def _is_resource_home(module: str) -> bool:
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in RESOURCE_HOME_PREFIXES)


class ProjectChecker:
    """Base class for phase-2 (whole-program) checkers."""

    id: str = "PRJ000"
    title: str = ""
    severity: str = "warning"
    rationale: str = ""
    example_bad: str = ""
    example_good: str = ""

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module_index: dict, site: dict, message: str
                ) -> Finding:
        """Finding anchored at an indexed site (``line``/``col`` keys)."""
        return Finding(path=module_index["path"], line=site["line"],
                       col=site.get("col", 1), check=self.id,
                       message=message, severity=self.severity)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.id}>"


# -- the two-phase runner ------------------------------------------------------


def lint_bundle(modules: Iterable[SourceModule],
                checkers: Iterable[Checker],
                project_checkers: Iterable[ProjectChecker] = (),
                ) -> list[Finding]:
    """Run both phases over parsed modules: the one runner."""
    modules = list(modules)
    raw = [finding for module in modules
           for finding in analyze_module(module, checkers)]
    indexes = [build_module_index(module) for module in modules]
    project_index = ProjectIndex(indexes)
    for checker in sorted(project_checkers, key=lambda c: c.id):
        raw.extend(checker.check_project(project_index))
    return apply_suppressions(
        raw, {module.path: module.suppressions for module in modules})


def lint_tree(paths: Iterable[Path],
              checkers: Iterable[Checker],
              project_checkers: Iterable[ProjectChecker] = (),
              ) -> list[Finding]:
    """Load every ``.py`` file under ``paths`` and :func:`lint_bundle` it.

    Display paths are relativized to the current working directory when
    possible so findings (and baselines) are machine-independent.
    """
    cwd = Path.cwd()
    modules = []
    for file in iter_python_files(paths):
        try:
            display = file.resolve().relative_to(cwd).as_posix()
        except ValueError:
            display = file.as_posix()
        modules.append(
            SourceModule(display, file.read_text(encoding="utf-8")))
    return lint_bundle(modules, checkers, project_checkers)
