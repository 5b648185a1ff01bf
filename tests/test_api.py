"""The public surface of the package resolves: every name a module lists in
``__all__`` exists, and every name the package imports is the module's own."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pathheat

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathheat.__path__))


def test_modules_found():
    assert {"solver", "cylinders", "ito", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pathheat.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(pathheat.__file__).read_text())
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"pathheat.{module_name}")
        assert getattr(pathheat, name) is getattr(module, name)
