"""Command-line interface.

Exit codes: 0 success (including indeterminate signature points,
reported as '?'), 1 property failure, 2 input error.  Each handler
imports what only it runs, so a cold start loads no more than it needs.
"""

from __future__ import annotations

import argparse
import cmath
import sys
from pathlib import Path

from .catalog import CatalogEntry, EntryParseError, builtin, builtin_catalog, load_entry
from .laurent import LaurentPoly
from .pairing import (InvariantViolation, SeifertData, basis_vector,
                      from_dual_surface, from_fibred, from_seifert)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


def _resolve_entry(ref: str) -> CatalogEntry:
    try:
        return builtin(ref)
    except KeyError:
        pass
    path = Path(ref)
    if path.exists():
        try:
            text = path.read_bytes()
        except OSError as exc:
            raise InputError(f"cannot read entry file {ref!r}: {exc.strerror}") from exc
        try:
            return load_entry(text)
        except (EntryParseError, InvariantViolation, ValueError) as exc:
            raise InputError(str(exc)) from exc
    names = ", ".join(e.name for e in builtin_catalog())
    raise InputError(f"no file or builtin entry {ref!r} (builtins: {names})")


def _parse_vector(text: str, size: int) -> tuple[LaurentPoly, ...]:
    parts = text.split(",")
    try:
        vec = tuple(LaurentPoly.parse(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad vector {text!r}: {exc}") from exc
    if len(vec) != size:
        raise InputError(f"vector {text!r} has length {len(vec)}, expected {size}")
    return vec


def _parse_circle_point(text: str) -> complex:
    if text.startswith("theta:"):
        try:
            theta = float(text[6:])
        except ValueError as exc:
            raise InputError(f"bad angle in {text!r}") from exc
        return cmath.exp(1j * theta)
    m = text.strip()
    if m.endswith("i"):
        m = m[:-1]
        # the last sign that is not an exponent's, as in 1e-10
        split = max((k for k in range(1, len(m)) if m[k] in "+-" and m[k - 1] not in "eE"),
                    default=0)
        if split <= 0:
            raise InputError(f"bad complex number {text!r}, use re+imi or theta:<radians>")
        im = m[split:]  # a bare sign before i means +-1
        try:
            re, im = float(m[:split]), float(im if len(im) > 1 else im + "1")
        except ValueError as exc:
            raise InputError(f"bad complex number {text!r}") from exc
        return complex(re, im)
    try:
        return complex(float(m), 0.0)
    except ValueError as exc:
        raise InputError(f"bad complex number {text!r}") from exc


def _emit(args, command: str, entry_ref: str, result: dict,
          diagnostics: dict | None = None, human: str = "") -> None:
    if args.json:
        import json
        doc = {"command": command, "input": entry_ref, "result": result,
               "diagnostics": diagnostics or {}}
        print(json.dumps(doc, sort_keys=True))
    elif human:
        print(human)


def _seifert_data(entry: CatalogEntry) -> SeifertData:
    data = entry.data()
    if not isinstance(data, SeifertData):
        raise InputError(f"entry {entry.name!r} has kind {entry.kind}, need seifert")
    return data


def cmd_alexander(args) -> int:
    from .invariants import alexander_polynomial
    entry = _resolve_entry(args.entry)
    delta = alexander_polynomial(_seifert_data(entry))
    _emit(args, "alexander", args.entry, {"alexander": str(delta)},
          human=str(delta))
    return EXIT_OK


def cmd_pairing(args) -> int:
    entry = _resolve_entry(args.entry)
    construct = {"seifert": from_seifert, "fibred": from_fibred,
                 "dual-surface": from_dual_surface}[entry.kind]
    pairing = construct(entry.data())
    value, n = pairing.value, pairing.size
    if (args.v is None) != (args.w is None):
        raise InputError("--v and --w must be given together")
    if args.v is not None:
        v = _parse_vector(args.v, n)
        w = _parse_vector(args.w, n)
        cls = value(v, w)
        _emit(args, "pairing", args.entry, {"value": str(cls)}, human=str(cls))
        return EXIT_OK
    grid = [[str(value(basis_vector(n, i), basis_vector(n, j)))
             for j in range(n)] for i in range(n)]
    human = "\n".join("  ".join(row) for row in grid) if grid else "[]"
    _emit(args, "pairing", args.entry, {"matrix": grid}, human=human)
    return EXIT_OK


def cmd_mk(args) -> int:
    from .mkform import mk_matrix
    entry = _resolve_entry(args.entry)
    form = mk_matrix(_seifert_data(entry))
    mk_rows = [[str(e) for e in row] for row in form.mk.entries]
    p_rows = [list(row) for row in form.congruence.entries]
    det = str(form.determinant())
    result = {"mk": mk_rows, "congruence": p_rows, "det": det}
    human_lines = ["M_K(t):"]
    human_lines += ["  [" + ", ".join(row) + "]" for row in mk_rows] or ["  []"]
    human_lines.append(f"congruence P: {form.congruence}")
    human_lines.append(f"det(M_K) = {det}")
    _emit(args, "mk", args.entry, result, human="\n".join(human_lines))
    return EXIT_OK


def cmd_signature(args) -> int:
    from .invariants import (IndeterminateSignatureError, levine_tristram_signature,
                             mk_signature, signature_profile)
    entry = _resolve_entry(args.entry)
    data = _seifert_data(entry)
    diagnostics: dict = {}
    if (args.z is None) == (args.samples is None):
        raise InputError("give exactly one of --z or --samples")
    if args.samples is not None and args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if args.z is not None:
        z = _parse_circle_point(args.z)
        try:
            sig = levine_tristram_signature(data, z)
            sig_str = str(sig)
        except IndeterminateSignatureError as exc:
            sig = None
            sig_str = "?"
            diagnostics["indeterminate"] = str(exc)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if args.check_mk:
            from .mkform import mk_matrix
            try:
                mk_sig = mk_signature(mk_matrix(data), z)
                mk_str = str(mk_sig)
            except IndeterminateSignatureError as exc:
                mk_sig = None
                mk_str = "?"
                diagnostics["indeterminate-mk"] = str(exc)
            agree = sig is not None and mk_sig is not None and sig == mk_sig
            verdict = "OK" if agree or sig is None or mk_sig is None else "MISMATCH"
            _emit(args, "signature", args.entry,
                  {"signature": sig_str, "mk_signature": mk_str, "check": verdict},
                  diagnostics, human=f"{sig_str} {mk_str} {verdict}")
            return EXIT_OK if verdict == "OK" else EXIT_PROPERTY_FAILURE
        _emit(args, "signature", args.entry, {"signature": sig_str},
              diagnostics, human=sig_str)
        return EXIT_OK
    profile = signature_profile(data, args.samples)
    rows = [{"theta": theta, "signature": "?" if s is None else s}
            for theta, s in profile]
    human = "\n".join(f"theta={theta:.6f}  {'?' if s is None else s}"
                      for theta, s in profile)
    _emit(args, "signature", args.entry, {"profile": rows}, human=human)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import verify_entry, verify_random
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if args.random is not None:
        genus, count = args.random
        if genus < 0 or count < 1:
            raise InputError(f"--random G N needs G >= 0 and N >= 1, got {genus} {count}")
        results = verify_random(genus, count, trials=args.trials,
                                seed=args.seed)
        ref = f"--random {genus} {count}"
    else:
        if args.entry is None:
            raise InputError("give an entry or --random G N")
        entry = _resolve_entry(args.entry)
        results = verify_entry(entry, trials=args.trials, seed=args.seed)
        ref = args.entry
    failed = [r for r in results if not r.passed]
    replays = [r.counterexample for r in failed if r.counterexample]
    result = {"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                         for r in results],
              "passed": not failed}
    human = [r.line() for r in results]
    for text in replays:  # each ends in a newline, which print puts back
        human += ["counterexample (replayable entry):", text.removesuffix("\n")]
    _emit(args, "verify", ref, result, {"counterexamples": replays},
          human="\n".join(human))
    return EXIT_PROPERTY_FAILURE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blanchfield",
        description="Exact Blanchfield pairings, Alexander polynomials and "
                    "Levine-Tristram signatures from matrix data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON document")
        p.set_defaults(fn=fn)
        return p

    p = add("alexander", cmd_alexander,
            "Alexander polynomial of a seifert entry")
    p.add_argument("entry", help="builtin name or entry file path")

    p = add("pairing", cmd_pairing,
            "Blanchfield pairing values or the full generator matrix")
    p.add_argument("entry")
    p.add_argument("--v", help="comma-separated Laurent polynomials")
    p.add_argument("--w", help="comma-separated Laurent polynomials")

    p = add("mk", cmd_mk, "the hermitian matrix M_K(t) and its congruence")
    p.add_argument("entry")

    p = add("signature", cmd_signature, "Levine-Tristram signatures")
    p.add_argument("entry")
    p.add_argument("--z", help="unit-circle point, re+imi or theta:<radians>")
    p.add_argument("--samples", type=int, help="sample count for a profile sweep")
    p.add_argument("--check-mk", action="store_true",
                   help="also compute sign(M_K(z)) and compare")

    p = add("verify", cmd_verify, "run the property suites")
    p.add_argument("entry", nargs="?")
    p.add_argument("--random", nargs=2, type=int, metavar=("G", "N"),
                   help="verify N random genus-G Seifert matrices")
    p.add_argument("--trials", type=int, default=25,
                   help="random trials of the sampled checks: sesquilinearity, and "
                        "nonsingularity where no exact certificate applies "
                        "(default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of those trials; with --random, the seed of the first "
                        "matrix, the next ones counting up (default %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InvariantViolation, EntryParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
