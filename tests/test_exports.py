"""Every name a ``repro`` package exports resolves.

``repro.serve`` and ``repro.workloads`` map their exports lazily, so a
map entry a deletion left behind would fail only on first access; this
looks every ``__all__`` entry up.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    name for _, name, is_package
    in pkgutil.walk_packages(repro.__path__, "repro.") if is_package)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
