"""Every exported name resolves: each name in a whml module's __all__, and
each name whml/__init__.py imports from a submodule.  A deleted function
whose __all__ entry was left behind fails here, not only under
`from whml.<module> import *`."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import whml

MODULES = sorted(info.name for info in pkgutil.iter_modules(whml.__path__, "whml."))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(whml.__file__).read_text(encoding="utf-8"))
    imports = [(f"whml.{node.module}", alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
