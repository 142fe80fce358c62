"""Every function, class and method the package defines is referenced."""

import ast
import re
from collections import Counter
from pathlib import Path

import blanchfield

PACKAGE = Path(blanchfield.__file__).parent
ROOT = PACKAGE.parent.parent
SOURCES = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def defined_names(source: str) -> list[str]:
    """Function, class and method names defined in source, dunders left out."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unreferenced(names: list[str], texts: list[str]) -> list[str]:
    """Names that occur as a whole word only where they are defined."""
    words = Counter(word for text in texts for word in re.findall(r"\w+", text))
    return sorted(name for name, defs in Counter(names).items() if words[name] <= defs)


def test_unreferenced_names_are_detected():
    source = "class A:\n    def f(self):\n        g()\n    def __len__(self):\n" \
             "        return 0\ndef g():\n    pass\ndef h_g():\n    pass\n"
    assert defined_names(source) == ["A", "g", "h_g", "f"]
    assert unreferenced(defined_names(source), [source, "x = A()"]) == ["f", "h_g"]


def test_every_package_name_is_referenced():
    names = [n for path in sorted(PACKAGE.glob("*.py")) for n in defined_names(path.read_text())]
    assert unreferenced(names, [p.read_text() for p in SOURCES]) == []
