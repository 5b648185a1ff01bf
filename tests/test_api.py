"""The public surface of the package resolves: every name a module lists in
``__all__`` exists, and every class or function there is defined in that
module, not re-exported; every name the package imports is the module's
own and listed in that module's ``__all__``, and no module imports a name
it does not use."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import pathheat

MODULES = sorted(m.name for m in pkgutil.iter_modules(pathheat.__path__))
SOURCES = sorted(p for p in Path(pathheat.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _package_imports():
    tree = ast.parse(Path(pathheat.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_modules_found():
    assert {"solver", "cylinders", "ito", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pathheat.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_no_re_export(name):
    module = importlib.import_module(f"pathheat.{name}")
    foreign = [n for n in getattr(module, "__all__", ())
               if (inspect.isclass(obj := getattr(module, n))
                   or inspect.isfunction(obj))
               and obj.__module__ != module.__name__]
    assert foreign == []


def test_package_imports_resolve():
    imports = _package_imports()
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"pathheat.{module_name}")
        assert getattr(pathheat, name) is getattr(module, name)


def test_package_imports_are_listed():
    unlisted = []
    for module_name, name in _package_imports():
        module = importlib.import_module(f"pathheat.{module_name}")
        if hasattr(module, "__all__") and name not in module.__all__:
            unlisted.append(f"{module_name}.{name}")
    assert unlisted == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"pathheat.{path.stem}")
    listed = set(getattr(module, "__all__", ()))
    assert sorted(bound - used - listed) == []
