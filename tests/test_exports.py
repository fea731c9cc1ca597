"""Every exported name resolves, in the package and in each of its modules,
so moving code out of ``src/`` cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import progemb

MODULES = sorted(info.name for info in pkgutil.iter_modules(progemb.__path__))


def test_package_exports_resolve():
    assert [name for name in progemb.__all__ if not hasattr(progemb, name)] == []


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"progemb.{module_name}")
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
