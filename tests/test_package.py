"""The public surface: every exported name resolves, and the modules keep
to their layers."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mixnorm

SOURCES = sorted(Path(mixnorm.__file__).parent.glob("*.py"))

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


def loaded_by_import(name: str) -> bool:
    """Whether ``import mixnorm`` in a fresh interpreter loads ``name`` or a submodule of it."""
    package_root = str(Path(mixnorm.__file__).parent.parent)
    pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    prefix = name + "."
    loaded = f"any(m == {name!r} or m.startswith({prefix!r}) for m in sys.modules)"
    code = f"import sys, mixnorm; sys.exit({loaded})"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
    )
    assert result.returncode in (0, 1)
    return result.returncode == 1


def test_import_leaves_the_cli_unloaded():
    assert not loaded_by_import("mixnorm.cli")


def test_import_leaves_scipy_unloaded():
    """Importing scipy.fft or scipy.special alone costs about 25 MB of memory."""
    assert not loaded_by_import("scipy")
    assert loaded_by_import("numpy")


def test_star_import():
    namespace: dict = {}
    exec("from mixnorm import *", namespace)
    assert set(mixnorm.__all__) <= set(namespace)


def test_only_mixed_norms_touches_the_memo():
    """``grids`` creates each function's memo and serial; only
    ``mixed_norms`` reads or writes them."""
    owners = {"grids.py", "mixed_norms.py"}
    for path in SOURCES:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        names |= {node.value for node in nodes if isinstance(node, ast.Constant)}
        if path.name not in owners:
            assert not names & {"_reductions", "_serial"}, path.name


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return names


def test_only_cli_writes_artifact_text():
    """``cli`` lays out every artifact."""
    for path in SOURCES:
        if path.name != "cli.py":
            assert not imported_modules(path) & {"csv", "io", "json"}, path.name


#: Exported names that no module of the package reads, kept because the
#: benchmark under ``perfbench/`` calls them by name.
BENCHMARK_PINNED = {
    "check_bilinear",
    "check_hausdorff_young",
    "check_restriction",
    "check_same_order",
    "check_variant",
    "ensemble_trials",
    "gaussian_product",
    "slice_second_zero",
}


def test_every_export_is_read_by_the_package():
    """A name a library module exports is read, as a name or an attribute,
    somewhere in the package, or the benchmark pins it; an export only the
    tests and demos call belongs in the tests."""
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert BENCHMARK_PINNED <= set(mixnorm.__all__)
    assert [name for name in mixnorm.__all__ if name not in read | BENCHMARK_PINNED] == []


def test_no_module_imports_a_private_name_from_a_sibling():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or node.module.startswith("mixnorm"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert private == [], f"{path.name} imports {private} from {node.module}"


#: Every Python file of the package, the tests, the tools and the demos.
#: The benchmark under ``perfbench/`` is not checked.
CHECKED = sorted(
    path
    for folder in ("src/mixnorm", "tests", "tools", "demos")
    for path in (Path(__file__).parent.parent / folder).rglob("*.py")
)


def unused_imports(path: Path) -> list[str]:
    """Each imported name that no ``ast.Name`` reads and ``__all__`` does not
    list, as ``file:line name``. ``__future__`` and star imports, and lines
    marked ``# noqa: F401``, are skipped."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", CHECKED, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    assert unused_imports(path) == []
