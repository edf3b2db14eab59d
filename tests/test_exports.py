"""Every name a selfsim module lists in ``__all__`` is an attribute of that module."""

import importlib
import pkgutil

import pytest

import selfsim

MODULES = ["selfsim"] + [f"selfsim.{info.name}" for info in pkgutil.iter_modules(selfsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
