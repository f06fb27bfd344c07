"""Every exported name resolves, in the package and in each of its modules."""
import importlib
import pkgutil

import pytest

import meanosc

_MODULES = sorted(m.name for m in pkgutil.iter_modules(meanosc.__path__))


@pytest.mark.parametrize("name", ["meanosc"] + [f"meanosc.{m}" for m in _MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"
