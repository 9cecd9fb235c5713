"""NumPy is the package's only runtime dependency."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vecgame"


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library_and_numpy():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = {
        (path.name, name)
        for path in files
        for name in _absolute_imports(path)
        if name != "numpy" and name not in sys.stdlib_module_names
    }
    assert not outside


def test_pyproject_lists_only_numpy_as_a_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    names = [dep.split(">")[0].split("=")[0].split("<")[0].strip() for dep in dependencies]
    assert names == ["numpy"]
