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
from .pairing import InvariantViolation, SeifertData, basis_vector

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
    z = text.strip()
    try:  # complex() reads re+imj, and a bare sign before j as +-1
        return complex(z[:-1] + "j" if z.endswith("i") else z)
    except ValueError as exc:
        raise InputError(f"bad complex number {text!r}, use re+imi or theta:<radians>") from exc


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
    data = entry.data()
    value, n = data.value, data.size
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
    if (args.z is None) == (args.samples is None):
        raise InputError("give exactly one of --z or --samples")
    if args.samples is not None:
        if args.check_mk:
            raise InputError("--check-mk compares at one point: give --z, not --samples")
        if args.samples < 1:
            raise InputError(f"--samples must be at least 1, got {args.samples}")
        profile = signature_profile(data, args.samples)
        rows = [{"theta": theta, "signature": "?" if s is None else s}
                for theta, s in profile]
        human = "\n".join(f"theta={theta:.6f}  {'?' if s is None else s}"
                          for theta, s in profile)
        _emit(args, "signature", args.entry, {"profile": rows}, human=human)
        return EXIT_OK
    z = _parse_circle_point(args.z)
    diagnostics: dict = {}

    def signature(key: str, compute, form) -> str:
        """The signature at z, or '?' with its reason under key."""
        try:
            return str(compute(form, z))
        except IndeterminateSignatureError as exc:
            diagnostics[key] = str(exc)
            return "?"
        except ValueError as exc:
            raise InputError(str(exc)) from exc

    sig = signature("indeterminate", levine_tristram_signature, data)
    if not args.check_mk:
        _emit(args, "signature", args.entry, {"signature": sig}, diagnostics, human=sig)
        return EXIT_OK
    from .mkform import mk_matrix
    mk_sig = signature("indeterminate-mk", mk_signature, mk_matrix(data))
    verdict = "MISMATCH" if "?" not in (sig, mk_sig) and sig != mk_sig else "OK"
    _emit(args, "signature", args.entry,
          {"signature": sig, "mk_signature": mk_sig, "check": verdict},
          diagnostics, human=f"{sig} {mk_sig} {verdict}")
    return EXIT_OK if verdict == "OK" else EXIT_PROPERTY_FAILURE


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
                   help="random trials of sesquilinearity (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of those trials; with --random, the seed of the first "
                        "matrix, the next ones counting up (default %(default)s)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, InvariantViolation, EntryParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
