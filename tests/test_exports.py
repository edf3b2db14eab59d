"""Every name a selfsim module lists in ``__all__`` is an attribute of that module,
and every exception it defines is either a bad setting or a numerical failure."""

import importlib
import inspect
import pkgutil

import pytest

import selfsim
from selfsim.params import NumericalError

MODULES = ["selfsim"] + [f"selfsim.{info.name}" for info in pkgutil.iter_modules(selfsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exception_is_a_bad_setting_or_a_numerical_failure(name):
    # the CLI maps ValueError to exit 2 and NumericalError to exit 3, and nothing else
    module = importlib.import_module(name)
    for cls_name, cls in inspect.getmembers(module, inspect.isclass):
        if cls.__module__ == name and issubclass(cls, BaseException):
            assert issubclass(cls, ValueError) != issubclass(cls, NumericalError), cls_name
