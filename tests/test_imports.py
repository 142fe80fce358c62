"""Every import in the package is used in its scope (the module, or the
function that makes it); importing the CLI needs nothing beyond the
standard library; and a cold start loads only what its command runs."""

import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blanchfield

MODULES = sorted(Path(blanchfield.__file__).parent.glob("*.py"))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(scope: ast.AST):
    """Names bound by the imports in scope, nested functions left out."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)
        elif not isinstance(node, FUNCTIONS):
            yield from _imports(node)


def unused_imports(source: str) -> list[str]:
    """Imported names never used in their scope: a module-level import
    anywhere in the module, a function-level one in its function."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)]:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in scope.body:
            # names listed in a literal __all__ are re-exports
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= {e.value for e in node.value.elts}
        unused += [name for name in _imports(scope) if name not in used]
    return unused


def test_unused_imports_are_detected():
    assert unused_imports("import math\nimport os as o\n"
                          "from x import (a, b as c)\nprint(o, c)\n") == ["math", "a"]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []


def test_unused_function_imports_are_detected():
    source = ("import os\n"
              "def f(flag):\n"
              "    import json\n"
              "    if flag:\n"
              "        from x import a, b\n"
              "        return a\n"
              "    def g():\n"
              "        import re\n"
              "        return os, re\n"
              "def h():\n"
              "    return json\n")
    assert unused_imports(source) == ["json", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_no_numpy():
    code = "import sys, blanchfield.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(blanchfield.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


def test_package_has_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = Path(blanchfield.__file__).parent.parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(dep.startswith("numpy") for dep in project["optional-dependencies"]["test"])


# --- cold start ---------------------------------------------------------------

SRC = str(Path(blanchfield.__file__).parent.parent)
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


def fresh(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run a fresh interpreter under -X importtime: the process and the
    modules it imported beyond those loaded at start-up."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=ENV)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2}
    return proc, imported


def test_cli_import_loads_no_dataclasses_inspect_or_numpy():
    proc, imported = fresh("-c", "import blanchfield.cli")
    assert proc.returncode == 0 and "blanchfield.cli" in imported
    assert imported.isdisjoint({"dataclasses", "inspect", "numpy"})


def test_package_import_loads_no_submodule():
    _, imported = fresh("-c", "import blanchfield")
    assert "blanchfield" in imported
    assert [m for m in imported if m.startswith("blanchfield.")] == []


def test_alexander_loads_neither_verify_nor_json():
    proc, imported = fresh("-m", "blanchfield.cli", "alexander", "trefoil")
    assert proc.stdout == "t - 1 + t^-1\n"
    assert {"blanchfield.catalog", "blanchfield.invariants"} <= imported
    assert imported.isdisjoint({"blanchfield.verify", "json"})


@pytest.mark.parametrize("argv", ["alexander trefoil", "pairing trefoil", "mk trefoil",
                                  "signature trefoil --samples 9", "verify trefoil"])
def test_cold_command_matches_in_process(argv):
    from blanchfield.cli import main
    cold = subprocess.run([sys.executable, "-m", "blanchfield.cli", *argv.split()],
                          capture_output=True, text=True, env=ENV)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    assert (cold.returncode, cold.stdout) == (code, out.getvalue())


# --- the lazy package namespace -----------------------------------------------

def test_every_public_name_resolves_to_its_definition():
    assert sorted(blanchfield._SUBMODULE) == blanchfield.__all__
    for name in blanchfield.__all__:
        module = importlib.import_module(f"blanchfield.{blanchfield._SUBMODULE[name]}")
        assert getattr(blanchfield, name) is getattr(module, name)


def test_public_surface_is_pinned():
    # a name leaves (or joins) the public surface only on purpose
    assert sorted(blanchfield.__all__) == [
        "CatalogEntry", "CheckResult", "DualSurfaceData",
        "EntryParseError", "FibredData", "IndeterminateSignatureError",
        "InvariantViolation", "LAURENT", "LaurentPoly", "MKAssemblyError", "MKForm",
        "Matrix", "QModLambda", "RationalFunction", "SeifertData",
        "SingularMatrixError", "ZZ", "alexander_polynomial", "as_laurent_vector",
        "basis_vector", "builtin", "builtin_catalog", "canonical_class",
        "from_dual_surface", "from_fibred", "from_seifert", "kearton_value",
        "kearton_witness", "levine_tristram_signature", "load_entry", "mk_matrix",
        "mk_signature", "random_seifert", "render_entry",
        "signature_profile", "stabilize", "standard_symplectic", "symplectic_normalize",
        "verify_entry", "verify_random",
    ]


def test_dir_lists_the_public_names():
    assert set(blanchfield.__all__) <= set(dir(blanchfield))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from blanchfield import *", namespace)
    assert set(blanchfield.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        blanchfield.no_such_name
    assert not hasattr(blanchfield, "verify_everything")
