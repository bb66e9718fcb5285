"""Each module's surface: every exported name exists, once, and every
public name is exported."""

import importlib
import inspect
import pkgutil

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



@pytest.mark.parametrize("name", MODULES)
def test_module_all_lists_every_public_name(name):
    # Public: a function or class the module defines, or an UPPER_CASE
    # constant, whose name has no leading underscore.
    module = importlib.import_module(f"heolsim.{name}")
    public = [
        n for n, obj in vars(module).items()
        if not n.startswith("_") and (
            n.isupper()
            or (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        )
    ]
    assert sorted(set(public) - set(module.__all__)) == []
