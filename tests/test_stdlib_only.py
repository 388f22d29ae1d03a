"""The runtime is stdlib-only: every absolute import in the package names a
standard-library module.  numpy and sympy may serve the tests as oracles,
never the package.  Imports are also lean: `import quiverlab` loads no
submodule, its exports resolve on first use, and a CLI command loads only
the modules it calls."""

import ast
import hashlib
import importlib
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


def last_line_of_child(code):
    """The last stdout line of `python -S -c code` on this checkout's package;
    -S: no site packages, so no .pth file can import a module first."""
    src = str(Path(quiverlab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def test_cli_import_skips_dataclasses_and_inspect():
    code = ("import quiverlab.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert last_line_of_child(code) == "[]"


LOADED = "print(sorted(m for m in sys.modules if m.startswith('quiverlab.')))"


def test_package_import_loads_no_submodule():
    assert last_line_of_child(f"import quiverlab, sys; {LOADED}") == "[]"


def test_cli_command_loads_only_what_it_calls():
    code = f"import quiverlab.cli, sys; quiverlab.cli.run(['info', '--quiver', 'A2']); {LOADED}"
    loaded = set(ast.literal_eval(last_line_of_child(code)))
    assert "quiverlab.quiver" in loaded
    assert not loaded & {f"quiverlab.{m}" for m in ("paths", "covariants", "reflection", "strata")}


# sha256 of the space-joined sorted public names that `import quiverlab`
# bound when it imported every submodule: 127 exports and 9 submodules
PUBLIC_NAMES = "48c852068e6d3c59669bedcb8443e05143a40ba57b180872c2202c4a71de328c"


def test_all_keeps_the_public_names():
    assert len(quiverlab.__all__) == 136
    assert hashlib.sha256(" ".join(sorted(quiverlab.__all__)).encode()).hexdigest() == PUBLIC_NAMES


@pytest.mark.parametrize("module", sorted(quiverlab._EXPORTS))
def test_exports_resolve_to_their_module(module):
    mod = importlib.import_module(f"quiverlab.{module}")
    assert quiverlab.__getattr__(module) is mod
    for name in quiverlab._EXPORTS[module]:
        assert quiverlab.__getattr__(name) is getattr(mod, name)
        assert getattr(quiverlab, name) is getattr(mod, name)


def test_star_import_binds_every_name():
    ns = {}
    exec("from quiverlab import *", ns)
    del ns["__builtins__"]
    assert ns.keys() == set(quiverlab.__all__)
    assert all(ns[name] is getattr(quiverlab, name) for name in ns)
    assert set(quiverlab.__all__) <= set(dir(quiverlab))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'quiverlab' has no attribute 'nosuch'$"):
        quiverlab.nosuch  # noqa: B018
