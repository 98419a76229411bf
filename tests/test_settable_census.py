"""Every setting has a product caller: the settable-value census.

A defaulted parameter or dataclass field in ``src/`` is a setting, and
a setting earns its place only if a call in ``src/``, ``benchmarks/``
or ``examples/`` sets it: tests are not callers. The scan lists the
settings no such call sets, and the list must equal :data:`ALLOWED`,
whose entries are records, accumulators and settings kept for a named
reason. A new setting that only a test sets, or nobody, fails here:
make it a module constant instead, or add it to :data:`ALLOWED` with
its reason.

The scan parses the source and imports none of it. Its rules:

* **settable**: every parameter with a default (``self``/``cls``
  aside) of every function, method and nested function, and every
  dataclass field with a default or default factory that is not
  ``init=False``;
* **callee**: a call to ``f(...)`` or ``x.f(...)`` reaches every
  function or method named ``f``; a call to ``C(...)`` reaches class
  ``C``'s ``__init__`` or dataclass fields; ``super().__init__(...)``
  reaches the enclosing class's bases;
* **set**: a call sets each value it passes by keyword or position,
  and every value if it splats ``*args`` or ``**kwargs``;
  ``replace(obj, name=...)`` sets every dataclass field called
  ``name``; an attribute store ``x.name = ...`` sets every dataclass
  field and ``__init__`` parameter called ``name``, except a store to
  ``self`` in a class's own ``__init__``, which initialises that
  object's state and sets no setting.

Matching by name over-counts what is set, so a setting the census
misses has no caller under any reading of the call graph.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Where the callers live; ``tests/`` is deliberately not among them.
CALLER_DIRS = ("src", "benchmarks", "examples")

_RECORD = "a calibration record: one catalog instance, never varied"
_ACCUMULATOR = "an accumulator: starts empty, filled by its owner"
_REPLAY_MODEL = ("a replay model knob: the kernel-vs-reference "
                 "differentials vary it")
_TESTS_ONLY = ("only tests set it: to fold into a constant, or to keep "
               "with its own reason (ROADMAP 19)")

#: ``path:Owner.name`` of each setting no product call sets, and why it
#: stays.
ALLOWED = {
    # -- kept settings --------------------------------------------------------
    "repro/chaos/faults.py:FaultSpec.key_prefix":
        "pinned by tests/golden/smoke_resilience.json through to_dict()",
    "repro/serve/service.py:run_serving_workload.fault_plan":
        "random fault plans through DES serving (ROADMAP item 4(c))",
    "repro/shard/replay.py:ReplayConfig.shards": _REPLAY_MODEL,
    "repro/shard/replay.py:ReplayConfig.slots_per_shard": _REPLAY_MODEL,
    "repro/shard/replay.py:ReplayConfig.max_pending_per_shard":
        _REPLAY_MODEL,
    "repro/shard/replay.py:ReplayConfig.tenant_queue_depth": _REPLAY_MODEL,
    "repro/shard/replay.py:ReplayConfig.zipf_s": _REPLAY_MODEL,
    "repro/shard/replay.py:ReplayConfig.mean_service_s":
        _REPLAY_MODEL + ", and its recalibration is open (ROADMAP 22)",
    "repro/shard/replay.py:ReplayConfig.control_interval_s": _REPLAY_MODEL,
    "repro/shard/replay.py:ReplayConfig.max_shards": _REPLAY_MODEL,
    "repro/network/probe.py:ProbeSeries.samples":
        "a record field the probe fills, not an option",
    "repro/chaos/faults.py:FaultSpec.pipeline":
        "pinned by tests/golden/smoke_resilience.json through to_dict()",
    # -- settings only tests set ----------------------------------------------
    **{key: _TESTS_ONLY for key in (
        "repro/engine/io.py:IoStack.__init__.concurrency",
        "repro/engine/shuffle.py:ShuffleReader.__init__.concurrency",
        "repro/faas/scaling.py:ConcurrencyScaler.__init__.burst_limit",
        "repro/lint/framework.py:SourceModule.__init__.module",
        "repro/shard/rebalance.py:Rebalancer.__init__.min_window",
        "repro/shard/router.py:ShardRouter.__init__.vnodes")},
    # -- accumulators ---------------------------------------------------------
    "repro/core/micro/storage_io.py:ScalingTrace.successful": _ACCUMULATOR,
    "repro/core/micro/storage_io.py:ScalingTrace.nominal": _ACCUMULATOR,
    "repro/engine/coordinator.py:StageReport.request_sizes": _ACCUMULATOR,
    "repro/engine/io.py:IoStats.request_sizes": _ACCUMULATOR,
    "repro/core/micro/storage_io.py:ScalingTrace.times": _ACCUMULATOR,
    "repro/core/results.py:ExperimentResult.metrics": _ACCUMULATOR,
    "repro/core/results.py:ExperimentResult.series": _ACCUMULATOR,
    "repro/chaos/injector.py:InjectorState.counts": _ACCUMULATOR,
    "repro/storage/base.py:RequestStats.counts": _ACCUMULATOR,
    "repro/workloads/suite.py:VariabilityData.runtimes": _ACCUMULATOR,
    "repro/engine/shuffle.py:SliceRead._next.done":
        "a callback's event argument, which a direct first call omits",
    # -- reached through build_plan(query, **kwargs) --------------------------
    "repro/engine/queries.py:tpch_q1.scan_fragments":
        "set through build_plan(**kwargs), which calls a variable",
    "repro/engine/queries.py:tpcxbb_q3.scan_fragments":
        "set through build_plan(**kwargs), which calls a variable",
    # -- records --------------------------------------------------------------
    **{f"repro/engine/cost.py:CpuCostModel.{name}": _RECORD for name in (
        "decode_per_gib", "scan_per_gib", "aggregate_per_gib",
        "join_per_gib", "sort_per_gib", "udf_per_gib", "encode_per_gib",
        "request_overhead_s")},
    **{f"repro/pricing/catalog.py:LambdaPricing.{name}": _RECORD
       for name in ("per_gib_second", "per_request",
                    "ephemeral_per_gib_second", "ephemeral_free_bytes",
                    "memory_per_vcpu_bytes")},
    **{f"repro/pricing/catalog.py:EbsPricing.{name}": _RECORD for name in (
        "per_gib_month", "per_provisioned_iops_month", "free_iops",
        "per_provisioned_mbps_month", "free_mbps", "max_iops",
        "max_throughput")},
}


@dataclass(frozen=True)
class Setting:
    """One defaulted parameter or field: where, and how a call names it."""

    key: str
    name: str
    #: Position among the callee's arguments (``self`` aside), or
    #: ``None`` for a keyword-only parameter.
    index: int | None


@dataclass
class Settings:
    """Every setting in ``src/``, indexed the ways a caller reaches it."""

    all: list[Setting]
    #: Function or method name -> its settings (``__init__`` aside).
    by_function: dict[str, list[Setting]]
    #: Class name -> its ``__init__`` settings or dataclass fields.
    by_class: dict[str, list[Setting]]
    #: Attribute name -> dataclass fields and ``__init__`` parameters.
    by_attribute: dict[str, list[Setting]]
    #: Field name -> dataclass fields (what ``replace()`` can name).
    by_field: dict[str, list[Setting]]
    #: Class name -> the names of its bases.
    bases: dict[str, list[str]]


def _name(node: ast.AST) -> str:
    """The trailing name of ``f`` or ``x.f``; ``""`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in node.decorator_list)


def _dataclass_fields(node: ast.ClassDef):
    """``(name, position, has_default)`` of each ``__init__`` field."""
    position = 0
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)) \
                or "ClassVar" in ast.unparse(statement.annotation):
            continue
        has_default = statement.value is not None
        value = statement.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = ("default" in keywords
                           or "default_factory" in keywords)
        yield statement.target.id, position, has_default
        position += 1


def collect(src: Path) -> Settings:
    found = Settings([], defaultdict(list), defaultdict(list),
                     defaultdict(list), defaultdict(list), {})

    def add(setting: Setting, *indexes) -> None:
        found.all.append(setting)
        for index, key in indexes:
            index[key].append(setting)

    def visit(node: ast.AST, path: str, owner: str | None,
              prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                found.bases[child.name] = [_name(b) for b in child.bases]
                if _is_dataclass(child):
                    for name, position, has_default \
                            in _dataclass_fields(child):
                        if has_default:
                            add(Setting(f"{path}:{prefix}{child.name}."
                                        f"{name}", name, position),
                                (found.by_class, child.name),
                                (found.by_attribute, name),
                                (found.by_field, name))
                visit(child, path, child.name, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(_name(d) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if owner is not None and not static else 0
                is_init = child.name == "__init__" and owner is not None
                defaulted = [
                    (arg, position - skip) for position, arg
                    in enumerate(positional)
                    if position >= len(positional) - len(args.defaults)]
                defaulted += [(arg, None) for arg, default
                              in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                for arg, position in defaulted:
                    setting = Setting(f"{path}:{prefix}{child.name}."
                                      f"{arg.arg}", arg.arg, position)
                    if is_init:
                        add(setting, (found.by_class, owner),
                            (found.by_attribute, arg.arg))
                    else:
                        add(setting, (found.by_function, child.name))
                visit(child, path, None, f"{prefix}{child.name}.")
            else:
                visit(child, path, owner, prefix)

    for file in sorted(src.rglob("*.py")):
        visit(ast.parse(file.read_text(encoding="utf-8")),
              file.relative_to(src).as_posix(), None, "")
    return found


def _set_by_call(call: ast.Call, settings: list[Setting], out: set) -> None:
    splat = any(isinstance(a, ast.Starred) for a in call.args) \
        or any(k.arg is None for k in call.keywords)
    keywords = {k.arg for k in call.keywords}
    positional = sum(not isinstance(a, ast.Starred) for a in call.args)
    for setting in settings:
        if splat or setting.name in keywords or (
                setting.index is not None and setting.index < positional):
            out.add(setting.key)


def set_by(found: Settings, roots) -> set[str]:
    """Keys of the settings some code under ``roots`` sets."""
    out: set[str] = set()

    def visit(node: ast.AST, owner: str | None, in_init: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = _name(child.func)
                if callee == "replace":
                    for keyword in child.keywords:
                        out.update(s.key for s
                                   in found.by_field.get(keyword.arg, ()))
                if callee == "__init__" and owner is not None \
                        and isinstance(child.func, ast.Attribute) \
                        and isinstance(child.func.value, ast.Call) \
                        and _name(child.func.value.func) == "super":
                    for base in found.bases.get(owner, ()):
                        _set_by_call(child, found.by_class.get(base, []),
                                     out)
                elif callee:
                    _set_by_call(child,
                                 found.by_function.get(callee, [])
                                 + found.by_class.get(callee, []), out)
            elif isinstance(child, (ast.Assign, ast.AugAssign,
                                    ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) \
                    else [child.target]
                for target in targets:
                    for part in ast.walk(target):
                        if isinstance(part, ast.Attribute) \
                                and isinstance(part.ctx, ast.Store) \
                                and not (in_init
                                         and _name(part.value) == "self"):
                            out.update(s.key for s in
                                       found.by_attribute.get(part.attr, ()))
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, False)
            else:
                visit(child, owner, in_init or (
                    isinstance(node, ast.ClassDef)
                    and isinstance(child, ast.FunctionDef)
                    and child.name == "__init__"))

    for root in roots:
        for file in sorted(root.rglob("*.py")):
            visit(ast.parse(file.read_text(encoding="utf-8")), None, False)
    return out


def unset_settings(root: Path = ROOT) -> list[str]:
    """Keys of the settings in ``src/`` that no caller sets, in order."""
    found = collect(root / "src")
    product = set_by(found, [root / d for d in CALLER_DIRS])
    return [s.key for s in found.all if s.key not in product]


def test_every_setting_has_a_product_caller_or_a_reason():
    unset = unset_settings()
    assert sorted(set(unset) - set(ALLOWED)) == [], (
        "settings no call in src/, benchmarks/ or examples/ sets: make "
        "each a module constant, or allow it with its reason")
    assert sorted(set(ALLOWED) - set(unset)) == [], (
        "allowed settings that now have a product caller (or are gone): "
        "drop them from ALLOWED")


def test_the_census_sees_every_setting_kind(tmp_path):
    """Plant one setting of each kind with no product caller, and one
    that only a test sets: the scan lists exactly those."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "planted.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "def f(a, b=1, *, c=2):\n    return a\n\n"
        "@dataclass\nclass D:\n    x: int\n    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    w: int = field(default=0, init=False)\n\n"
        "class K:\n    def __init__(self, p=0, q=1):\n        pass\n\n"
        "class L(K):\n    def __init__(self):\n        super().__init__(5)\n"
        "\n\nclass M:\n    def __init__(self):\n        self.y = 1\n"
        "\n\ndef use(d):\n    f(0, c=3)\n    d.z = []\n    K(q=2)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text("f(0, 1)\nD(0, 1)\n")
    for name in ("benchmarks", "examples"):
        (tmp_path / name).mkdir()
    assert unset_settings(tmp_path) == [
        "repro/planted.py:f.b", "repro/planted.py:D.y"]
