"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import mixnorm

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(mixnorm.__path__) if info.name != "__main__"
)


def test_package_all_resolves():
    missing = [name for name in mixnorm.__all__ if not hasattr(mixnorm, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"mixnorm.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from mixnorm import *", namespace)
    assert set(mixnorm.__all__) <= set(namespace)
