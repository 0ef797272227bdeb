"""Every name a module of the package exports in __all__ exists on it."""

import importlib
import pkgutil

import pytest

import epsentropy

MODULES = sorted(m.name for m in pkgutil.iter_modules(epsentropy.__path__))


def test_modules_found():
    assert "estimators" in MODULES and "paircount" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_export(name):
    # an __all__ entry the module lacks fails the star import with AttributeError
    exec(f"from epsentropy.{name} import *", {})
    exported = getattr(importlib.import_module(f"epsentropy.{name}"), "__all__", [])
    assert len(set(exported)) == len(exported)
