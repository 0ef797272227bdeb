"""Every name a module of the package exports in __all__ exists on it, and
no module reads the environment: the same arguments give the same output
under any environment."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path) -> list[str]:
    """'file:line' of every os.environ / os.getenv use or import in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            hit = node.attr in ENVIRONMENT and isinstance(node.value, ast.Name) and node.value.id == "os"
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "os" and any(alias.name in ENVIRONMENT for alias in node.names)
        else:
            continue
        if hit:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_reads_the_environment():
    sources = sorted(Path(epsentropy.__file__).parent.glob("*.py"))
    assert len(sources) == len(MODULES) + 1  # and __init__.py
    assert [hit for path in sources for hit in _environment_reads(path)] == []
