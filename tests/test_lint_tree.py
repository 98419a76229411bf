"""The repository-wide lint gate, and sanity checks on the layer DAG."""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from tests.test_lint_framework import CLEAN, DIRTY

from repro.lint import all_checkers, all_project_checkers, lint_tree
from repro.lint.arch import layer_of
from repro.lint.baseline import Baseline, diff_against_baseline
from repro.lint.cli import DEFAULT_BASELINE
from repro.lint.framework import iter_python_files, module_name_from_path
from repro.lint.layer_dag import ALLOWED, LAYERS

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


class TestTreeGate:
    def test_source_tree_is_lint_clean(self, monkeypatch):
        """The committed tree passes the CI gate: no new findings, no
        stale baseline entries. (Same check `repro lint --strict` runs.)
        """
        monkeypatch.chdir(REPO_ROOT)
        findings = lint_tree([Path("src/repro")], all_checkers(),
                             all_project_checkers())
        baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
        new, _, stale = diff_against_baseline(findings, baseline)
        assert new == [], "\n".join(f.format() for f in new)
        assert stale == []

    def test_every_source_module_has_a_layer(self):
        unmapped = []
        for file in iter_python_files([SRC]):
            module = module_name_from_path(file.as_posix())
            if module is not None and layer_of(module) is None:
                unmapped.append(module)
        assert unmapped == []


class TestDiscoveryOrderDeterminism:
    """Findings are a function of the file *set*, not argv order."""

    @given(order=st.permutations(range(2)))
    def test_path_order_invariant(self, tmp_path_factory, order):
        base = tmp_path_factory.mktemp("shuffle")
        pkg = base / "src" / "repro" / "faas"
        pkg.mkdir(parents=True, exist_ok=True)
        (pkg / "dirty.py").write_text(DIRTY)
        (pkg / "clean.py").write_text(CLEAN)
        files = [pkg / "dirty.py", pkg / "clean.py"]
        baseline = lint_tree(files, all_checkers(),
                             all_project_checkers())
        shuffled = [files[i] for i in order]
        again = lint_tree(shuffled, all_checkers(),
                          all_project_checkers())
        assert [f.to_dict() for f in again] \
            == [f.to_dict() for f in baseline]


class TestLayerDag:
    def test_layers_and_allowed_keys_match(self):
        assert set(LAYERS) == set(ALLOWED)

    def test_allowed_references_exist(self):
        for layer, deps in ALLOWED.items():
            unknown = [d for d in deps if d not in LAYERS]
            assert unknown == [], f"{layer} allows unknown layers {unknown}"
            assert layer not in deps, f"{layer} lists itself (implicit)"

    def test_prefixes_unique(self):
        seen = {}
        for layer, prefixes in LAYERS.items():
            for prefix in prefixes:
                assert prefix not in seen, \
                    f"{prefix} claimed by both {seen[prefix]} and {layer}"
                seen[prefix] = layer

    def test_dag_is_acyclic(self):
        """Kahn's algorithm must consume every layer — a leftover means
        the "DAG" has a cycle and the layering contract is meaningless.
        """
        indegree = {layer: len(ALLOWED[layer]) for layer in LAYERS}
        dependants = {layer: [] for layer in LAYERS}
        for layer, deps in ALLOWED.items():
            for dep in deps:
                dependants[dep].append(layer)
        ready = sorted(layer for layer, n in indegree.items() if n == 0)
        order = []
        while ready:
            layer = ready.pop()
            order.append(layer)
            for dependant in dependants[layer]:
                indegree[dependant] -= 1
                if indegree[dependant] == 0:
                    ready.append(dependant)
        cyclic = sorted(set(LAYERS) - set(order))
        assert cyclic == [], f"cycle through layers {cyclic}"

    @pytest.mark.parametrize("module,layer", [
        ("repro", "util"),
        ("repro.units", "util"),
        ("repro.sim.kernel", "sim"),
        ("repro.serve", "service"),
        ("repro.serve.service", "service"),
        ("repro.serve.gateway", "serve"),
        ("repro.chaos.runner", "service"),
        ("repro.chaos.faults", "chaos"),
        ("repro.cli", "app"),
        ("repro.unknown_package.x", None),
    ])
    def test_layer_assignment_most_specific_prefix(self, module, layer):
        assert layer_of(module) == layer
