"""Run the examples in the package's docstrings."""

import doctest
import importlib
import pkgutil

import blanchfield


def test_docstring_examples():
    results = {m.name: doctest.testmod(importlib.import_module(f"blanchfield.{m.name}"))
               for m in pkgutil.iter_modules(blanchfield.__path__)}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    # the modules that carry examples, so that finding none cannot pass
    assert all(results[name].attempted
               for name in ("_polyops", "invariants", "laurent", "matrix", "qmod"))
