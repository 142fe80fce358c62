"""Span tracing from outside the package.

``Tracer.install`` wraps the package's public functions and methods at
the attribute their callers look up: module functions are rebound in
every ``blanchfield`` module that imported them by name (``pairing``
binds ``canonical_class`` that way), methods are replaced on their
class.  Each call records a span (name, start, end, parent) in memory,
up to a cap, and always feeds per-name aggregates: calls, inclusive
time (outermost call of a name only, so recursion is not counted twice)
and self time (duration minus the time covered by child spans).

Names that no longer exist are skipped, so the tracer keeps working when
a later change removes a function; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> (module, module functions, {class: methods}); "check_*" style
# prefixes end in "*" and match every function with that prefix.
HOOKS = {
    "polyops": ("_polyops", ["add", "sub", "neg", "mul", "scale", "shift",
                             "content", "primitive", "gcd_poly", "divmod_frac",
                             "div_exact", "series_inverse",
                             "clear_denominators"], {}),
    "laurent": ("laurent", [], {"LaurentPoly": [
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__pow__", "conjugate", "exact_div",
        "is_unit_multiple_of", "evaluate", "parse"]}),
    "ratfunc": ("ratfunc", [], {"RationalFunction": [
        "__init__", "from_fraction_polys", "__add__", "__radd__", "__neg__",
        "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
        "__rtruediv__", "conjugate", "is_laurent", "to_laurent"]}),
    "qmod": ("qmod", ["canonical_class"], {"QModLambda": [
        "from_ratfunc", "representative", "conjugate", "__add__", "__neg__",
        "__sub__", "__mul__", "__rmul__"]}),
    "matrix": ("matrix", [], {"Matrix": [
        "det", "inverse", "solve", "__add__", "__sub__", "__neg__", "__mul__",
        "__rmul__", "mul_vec", "transpose", "conjugate", "conjugate_transpose",
        "to_ring", "map_entries", "identity", "from_int_rows"]}),
    "pairing": ("pairing", ["from_seifert", "from_fibred", "from_dual_surface",
                            "kearton_value", "stabilize", "as_laurent_vector",
                            "basis_vector", "_pairing_from_inverse",
                            "_clear_to_laurent"], {
        "SeifertData": ["__init__"], "FibredData": ["__init__"],
        "DualSurfaceData": ["__init__"],
        "PresentedPairing": ["__init__", "value", "element_equal",
                             "is_zero_element"],
        "DualSurfaceEvaluator": ["__init__", "value"]}),
    "mkform": ("mkform", ["mk_matrix", "symplectic_normalize",
                          "standard_symplectic", "mk_pairing_value",
                          "_block_diag_scalars"], {
        "MKForm": ["determinant", "evaluate", "to_presented_pairing",
                   "pairing_value"]}),
    "invariants": ("invariants", ["alexander_polynomial",
                                  "levine_tristram_signature", "mk_signature",
                                  "signature_profile"], {}),
    "verify": ("verify", ["verify_entry", "verify_random", "kearton_witness",
                          "check_*", "random_laurent", "random_vector",
                          "seifert_entry", "format_vector",
                          "_counterexample"], {}),
    "catalog": ("catalog", ["load_entry", "render_entry", "builtin",
                            "builtin_catalog", "random_seifert"],
                {"CatalogEntry": ["data", "matrix"]}),
    "cli": ("cli", ["main", "cmd_*", "_resolve_entry", "_emit"], {}),
}
LAYERS = tuple(HOOKS) + ("bench",)


class Tracer:
    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        # per name id: [calls, inclusive seconds, self seconds, active depth]
        self.stats: list[list] = []
        self.stack: list[list] = []  # frames: [name id, start, child seconds, span id]
        self.spans: list[tuple] = []  # (span id, name id, start, end, parent span id)
        self.next_span = 0
        self.dropped = 0
        self.raised: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self.keep_results: set[str] = set()
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        i = self.ids.get(name)
        if i is None:
            i = self.ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0, 0])
        return i

    def enter(self, name: str) -> None:
        i = self._id(name)
        self.stats[i][3] += 1
        self.stack.append([i, time.perf_counter(), 0.0, self.next_span])
        self.next_span += 1

    def leave(self) -> float:
        end = time.perf_counter()
        i, start, child, span = self.stack.pop()
        dur = end - start
        st = self.stats[i]
        st[0] += 1
        st[2] += dur - child
        st[3] -= 1
        if not st[3]:
            st[1] += dur
        parent = -1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        # past the cap, keep only the coarse spans: jobs, their direct calls
        # into the package and one level below
        if len(self.spans) < self.max_spans or len(self.stack) < 3:
            self.spans.append((span, i, start, end, parent))
        else:
            self.dropped += 1
        return dur

    def wrap(self, name: str, fn):
        keep = name in self.keep_results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                key = f"{name}:{type(exc).__name__}"
                self.raised[key] = self.raised.get(key, 0) + 1
                raise
            finally:
                seconds = self.leave()
            if keep:
                self.results.setdefault(name, []).append((out, seconds))
            return out
        return traced

    def install(self) -> None:
        for modname, _, _ in HOOKS.values():
            try:
                importlib.import_module(f"blanchfield.{modname}")
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "blanchfield" or n.startswith("blanchfield."))]
        for layer, (modname, funcs, classes) in HOOKS.items():
            mod = sys.modules.get(f"blanchfield.{modname}")
            if mod is None:
                continue
            for fname in _expand(mod, funcs):
                orig = getattr(mod, fname, None)
                if not callable(orig):
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, wrapped, orig)
            for cname, methods in classes.items():
                cls = getattr(mod, cname, None)
                if cls is None:
                    continue
                for meth in methods:
                    raw = cls.__dict__.get(meth)
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(f"{layer}.{cname}.{meth}", raw.__func__))
                    elif isinstance(raw, staticmethod):
                        new = staticmethod(self.wrap(f"{layer}.{cname}.{meth}", raw.__func__))
                    elif callable(raw):
                        new = self.wrap(f"{layer}.{cname}.{meth}", raw)
                    else:
                        continue
                    self._set(cls, meth, new, raw)

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # --- aggregates -------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats[self.ids[n]][0] for n in names if n in self.ids)

    def inclusive(self, *names: str) -> float:
        return sum(self.stats[self.ids[n]][1] for n in names if n in self.ids)

    def self_time(self, *names: str) -> float:
        return sum(self.stats[self.ids[n]][2] for n in names if n in self.ids)

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in zip(self.names, self.stats):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + st[2]
        return out

    def layer_calls(self, layer: str, exclude=()) -> int:
        return sum(st[0] for name, st in zip(self.names, self.stats)
                   if name.startswith(layer + ".") and name not in exclude)

    def merge(self, other: dict) -> None:
        """Fold in the aggregates another process dumped with ``dump_stats``."""
        for name, (calls, incl, self_s) in other["stats"].items():
            st = self.stats[self._id(name)]
            st[0] += calls
            st[1] += incl
            st[2] += self_s
        for key, n in other["raised"].items():
            self.raised[key] = self.raised.get(key, 0) + n
        self.dropped += other["dropped"]

    def dump_stats(self) -> dict:
        return {"stats": {n: st[:3] for n, st in zip(self.names, self.stats)},
                "raised": self.raised, "dropped": self.dropped}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "dropped": self.dropped,
                       "columns": ["span", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _expand(mod, names):
    for name in names:
        if name.endswith("*"):
            yield from sorted(n for n, v in vars(mod).items()
                              if n.startswith(name[:-1]) and callable(v)
                              and getattr(v, "__module__", None) == mod.__name__)
        else:
            yield name
