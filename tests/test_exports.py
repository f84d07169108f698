"""Every exported name resolves: each name in a whml module's __all__, and
each name whml/__init__.py imports from a submodule.  A deleted function
whose __all__ entry was left behind fails here, not only under
`from whml.<module> import *`.  The package attribute `whml.classify` is the
function, and the module is reached through importlib."""

import ast
import importlib
import inspect
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


def test_module_named_like_its_function():
    # whml/__init__.py re-exports classify under its submodule's name, so
    # `import whml.classify as m` binds the function; importlib reaches the
    # module, where perfbench's tracer replaces the names classify calls
    import whml.classify as bound

    module = importlib.import_module("whml.classify")
    assert bound is whml.classify is module.classify
    assert not inspect.ismodule(bound)
    assert inspect.ismodule(module) and module.__name__ == "whml.classify"
    for name in ("build_loop", "min_modulus", "winding_number", "compute_alpha_c"):
        assert callable(getattr(module, name)), name
