"""Run the examples in the package's docstrings and in README.md."""

import contextlib
import doctest
import importlib
import io
import pathlib
import pkgutil
import re

import blanchfield

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_docstring_examples():
    results = {m.name: doctest.testmod(importlib.import_module(f"blanchfield.{m.name}"))
               for m in pkgutil.iter_modules(blanchfield.__path__)}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    # the modules that carry examples, so that finding none cannot pass
    assert all(results[name].attempted
               for name in ("_polyops", "invariants", "laurent", "matrix", "qmod"))


def test_readme_library_example():
    # the one python block runs, and each print writes the line its
    # trailing comment shows
    (code,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = [re.fullmatch(r"print\(.*\)\s+# (.*)", line)[1] for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected and expected
