"""The public surface: every exported name resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mixnorm

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(mixnorm.__path__) if info.name != "__main__"
)

#: The modules whose public names the package re-exports, in order.
LIBRARY = [
    "exponents",
    "gaussians",
    "grids",
    "inequalities",
    "mixed_norms",
    "sampling",
    "sweeps",
    "transform",
]


def test_package_all_resolves():
    missing = [name for name in mixnorm.__all__ if not hasattr(mixnorm, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"mixnorm.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_all_is_the_library_registry():
    expected = [
        name for module in LIBRARY for name in importlib.import_module(f"mixnorm.{module}").__all__
    ]
    assert mixnorm.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_import_leaves_the_cli_unloaded():
    package_root = str(Path(mixnorm.__file__).parent.parent)
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    code = "import sys, mixnorm; sys.exit('mixnorm.cli' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
    )
    assert result.returncode == 0


def test_star_import():
    namespace: dict = {}
    exec("from mixnorm import *", namespace)
    assert set(mixnorm.__all__) <= set(namespace)
