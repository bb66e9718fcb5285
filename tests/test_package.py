"""The package surface: every exported name exists, once."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import heolsim

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(heolsim.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves_without_duplicates(name):
    module = importlib.import_module(f"heolsim.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_all_is_what_the_package_binds():
    exported = heolsim.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(heolsim, n)] == []
    # Read the bindings from the source: importing the submodules also
    # binds their names on the package at run time.
    tree = ast.parse(Path(heolsim.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    bound.discard("__all__")
    assert sorted(exported) == sorted(bound)
