"""The runtime is stdlib-only: every absolute import in the package names a
standard-library module.  numpy and sympy may serve the tests as oracles,
never the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverlab

MODULES = sorted(Path(quiverlab.__file__).parent.rglob("*.py"))


def foreign_imports(source):
    """Top-level names of the absolute imports in source that are not in the
    standard library; relative imports stay inside the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_guard_sees_every_import_form():
    source = ("import os, numpy.linalg\nfrom sympy import I\nfrom . import fields\n"
              "from .linalg import Mat\nfrom fractions import Fraction\n"
              "def f():\n    import scipy\n")
    assert foreign_imports(source) == ["numpy.linalg", "sympy", "scipy"]


def test_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "fields.py", "linalg.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_stdlib(path):
    assert foreign_imports(path.read_text()) == []


def test_cli_import_skips_dataclasses_and_inspect():
    # -S: no site packages, so no .pth file can import either module first
    src = str(Path(quiverlab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import quiverlab.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
