"""NumPy is the package's only runtime dependency."""

from __future__ import annotations

import ast
import json
import os
import subprocess
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


_LATE_IMPORTS = """
import json, os, sys
from vecgame import cli
loaded = set(sys.modules)
game = os.path.join(sys.argv[1], "game.json")
with open(game, "w", encoding="utf-8") as fh:
    json.dump({"rows": 3, "cols": 3, "dim": 2, "payoffs": [
        [[1, 2], [0, 3], [2, 0]], [[3, 1], [1, 1], [0, 2]], [[2, 2], [3, 0], [1, 3]]]}, fh)
for command in ("solve", "equilibria", "poss"):
    out = os.path.join(sys.argv[1], command + ".json")
    assert cli.main([command, "-i", game, "--step-row", "1/4", "--workers", "1", "-o", out]) == 0
print(json.dumps(sorted(set(sys.modules) - loaded)))
"""


def test_the_commands_import_nothing_once_the_package_is_loaded(tmp_path):
    # every pool worker would pay a late import again, in every pool
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", _LATE_IMPORTS, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == []


_BLAS_THREADS = """
import os, sys
import vecgame
threads = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else 0
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


@pytest.mark.parametrize(("given", "want"), [(None, "1"), ("3", "3")])
def test_the_package_runs_one_blas_thread_unless_the_caller_chose(given, want):
    # no array here is large enough for BLAS threads, and starting them costs CPU
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    run = subprocess.run([sys.executable, "-c", _BLAS_THREADS],
                         env=env, capture_output=True, text=True, check=True)
    value, threads = run.stdout.split()
    assert value == want
    if given is None and sys.platform.startswith("linux"):
        assert threads == "1"
