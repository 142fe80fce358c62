"""Every module-level import in the package is used by its module, and
importing the CLI needs nothing beyond the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blanchfield

MODULES = sorted(Path(blanchfield.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        # names listed in __all__ are re-exports
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


def test_unused_imports_are_detected():
    assert unused_imports("import math\nimport os as o\n"
                          "from x import (a, b as c)\nprint(o, c)\n") == ["math", "a"]
    assert unused_imports("from x import a\n__all__ = ['a']\n") == []


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
