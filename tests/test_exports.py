"""Every name a riplab module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import riplab

MODULES = ["riplab"] + [f"riplab.{info.name}" for info in pkgutil.iter_modules(riplab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
