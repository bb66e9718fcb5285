"""Each module's surface: every exported name exists, once."""

import importlib
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

