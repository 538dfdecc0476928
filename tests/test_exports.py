"""Every advertised name resolves, so deletions leave no stale export behind."""

import importlib
import pkgutil
import types

import pytest

import tidegraph

MODULES = sorted(m.name for m in pkgutil.iter_modules(tidegraph.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"tidegraph.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_are_module_exports():
    # each name the package re-exports is public in the module it comes from
    public = set()
    for name in MODULES:
        public.update(getattr(importlib.import_module(f"tidegraph.{name}"), "__all__", []))
    exported = {
        n for n, v in vars(tidegraph).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert sorted(exported - public) == []
