"""Executable property checks for presented pairings.

Well-definedness, sesquilinearity, hermitian symmetry and nonsingularity
run seeded random trials through one loop, which calls a module of rank
0 vacuous rather than count trials that drew nothing.  The other checks
are exact, with no random draws: consistency and fibred-specialization
compare the dual-surface form with the Seifert or fibred form on every
generator pair, which covers all vectors as both are matrix forms, and
mk-form compares the signatures of M_K with the Levine-Tristram
signatures on every arc of the unit circle.  Each check reports
pass/fail with a replayable counterexample (entry grammar plus vectors
in the CLI's comma-separated Laurent format).  The CLI ``verify``
command prints the reports; the test suite asserts them.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Sequence

from .catalog import CatalogEntry, _entry, random_seifert, render_entry
from .invariants import signature_arcs
from .laurent import LaurentPoly, divides
from .matrix import LAURENT, ZZ, Matrix, Record
from .mkform import mk_matrix
from .pairing import (DualSurfaceData, DualSurfaceEvaluator, FibredData,
                      PresentedPairing, SeifertData, basis_vector,
                      from_dual_surface, from_fibred, from_seifert)
from .qmod import QModLambda


class CheckResult(Record):
    _fields = ("name", "passed", "detail", "counterexample")

    def __init__(self, name: str, passed: bool, detail: str = "",
                 counterexample: str | None = None):
        super().__init__(name, passed, detail, counterexample)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{self.name}: {status}"
        if self.detail:
            out += f" ({self.detail})"
        return out


def random_laurent(rng: random.Random) -> LaurentPoly:
    """One or two coefficients in [-3, 3] from a valuation in [-2, 1]."""
    val = rng.randint(-2, 1)
    width = rng.randint(1, 2)
    return LaurentPoly._of(val, [rng.randint(-3, 3) for _ in range(width)])


def random_vector(rng: random.Random, n: int) -> tuple[LaurentPoly, ...]:
    return tuple(random_laurent(rng) for _ in range(n))


def format_vector(v: Sequence[LaurentPoly]) -> str:
    return ", ".join(str(e) for e in v)


def seifert_entry(data: SeifertData, name: str = "counterexample") -> CatalogEntry:
    return _entry(name, "seifert", A=[list(r) for r in data.matrix.entries] or [])


def _counterexample(entry: CatalogEntry, **vectors) -> str:
    lines = [render_entry(entry).rstrip()]
    for key, vec in vectors.items():
        lines.append(f"{key}: {format_vector(vec)}")
    return "\n".join(lines) + "\n"


def _trials(name: str, entry: CatalogEntry, n: int, trials: int,
            trial: Callable[[int], tuple[str, dict] | None]) -> CheckResult:
    """Run trial(k) for k < trials; a trial draws its own vectors and returns
    None, or (detail, counterexample vectors) on failure.  A module of
    rank n = 0 has nothing to draw, so the check is vacuous."""
    if n == 0:
        return CheckResult(name, True, "vacuous for genus 0")
    for k in range(trials):
        failure = trial(k)
        if failure is not None:
            detail, vectors = failure
            return CheckResult(name, False, detail, _counterexample(entry, **vectors))
    return CheckResult(name, True, f"{trials} trials")


def check_well_defined(pairing: PresentedPairing, entry: CatalogEntry,
                       rng: random.Random, trials: int) -> CheckResult:
    """Pairing values are unchanged by shifts along the presentation, both slots."""
    n = pairing.size

    def trial(_):
        v, w, x = (random_vector(rng, n) for _ in range(3))
        shift = pairing.presentation.mul_vec(x)
        base = pairing.value(v, w)
        v2 = tuple(a + b for a, b in zip(v, shift))
        w2 = tuple(a + b for a, b in zip(w, shift))
        if pairing.value(v2, w) != base or pairing.value(v, w2) != base:
            return "value moved under a presentation shift", dict(v=v, w=w, x=x)
    return _trials("well-definedness", entry, n, trials, trial)


def check_sesquilinear(pairing: PresentedPairing | DualSurfaceEvaluator,
                       entry: CatalogEntry, rng: random.Random,
                       trials: int) -> CheckResult:
    """value(p v, q w) = p * value(v, w) * conj(q) as classes."""
    n = pairing.size

    def trial(_):
        v, w = random_vector(rng, n), random_vector(rng, n)
        p, q = random_laurent(rng), random_laurent(rng)
        lhs = pairing.value(tuple(p * e for e in v), tuple(q * e for e in w))
        if lhs != pairing.value(v, w) * (p * q.conjugate()):
            return f"fails for p={p}, q={q}", dict(v=v, w=w, p=(p,), q=(q,))
    return _trials("sesquilinearity", entry, n, trials, trial)


def check_hermitian(pairing: PresentedPairing, entry: CatalogEntry,
                    rng: random.Random, trials: int) -> CheckResult:
    """value(v, w) equals the conjugate class of value(w, v)."""
    n = pairing.size

    def trial(_):
        v, w = random_vector(rng, n), random_vector(rng, n)
        if pairing.value(v, w) != pairing.value(w, v).conjugate():
            return "conjugate symmetry fails", dict(v=v, w=w)
    return _trials("hermitian", entry, n, trials, trial)


def check_nonsingular(pairing: PresentedPairing, entry: CatalogEntry,
                      rng: random.Random, trials: int) -> CheckResult:
    """value(e_i, w) = 0 for all i exactly when w is zero in the module."""
    n = pairing.size
    basis = [basis_vector(n, i) for i in range(n)]

    def trial(k):
        if k % 3 == 2:
            # exercise the zero side with an element of the image
            w = pairing.presentation.mul_vec(random_vector(rng, n))
        else:
            w = random_vector(rng, n)
        all_zero = all(pairing.value(e, w).is_zero() for e in basis)
        if all_zero != pairing.is_zero_element(w):
            return (f"annihilated-by-basis {all_zero} but zero-in-module {not all_zero}",
                    dict(w=w))
    return _trials("nonsingularity", entry, n, trials, trial)


def _agree_on_generators(name: str, entry: CatalogEntry, dual: DualSurfaceData,
                         pairing: PresentedPairing, x: Matrix) -> CheckResult:
    """Does the dual-surface form N_d / d_d of dual equal x^T N x / d, which is
    (xv)^T N conj(xw) / d for the form N / d of pairing, as x is integral?  Both
    are matrix forms: agreeing on every generator pair, they agree on all vectors."""
    n = dual.size
    dual_numer, dual_denom = from_dual_surface(dual).form
    numer, denom = pairing.form
    x = x.to_ring(LAURENT)
    moved = x.transpose() * numer * x
    for i, j in itertools.product(range(n), repeat=2):
        if QModLambda._pair(dual_numer[i, j], dual_denom) != \
                QModLambda._pair(moved[i, j], denom):
            return CheckResult(name, False, f"generator pair ({i + 1},{j + 1}) differs",
                               _counterexample(entry, v=basis_vector(n, i),
                                               w=basis_vector(n, j)))
    return CheckResult(name, True, f"{n * n} generator pairs" if n else "vacuous for genus 0")


def check_consistency(data: SeifertData, entry: CatalogEntry) -> CheckResult:
    """Dual-surface formula with (A, A^T, A - A^T) matches the Seifert formula:
    its value of (v, w) is (Av)^T (t-1)(A - tA^T)^{-1} conj(Aw), for all v, w."""
    a = data.matrix
    return _agree_on_generators("consistency", entry,
                                DualSurfaceData(a, a.transpose(), a - a.transpose()),
                                from_seifert(data), a)


def kearton_witness(data: SeifertData) -> tuple[tuple[int, ...], int] | None:
    """Integer x and basis index j making the classical formula
    v^T (t-1)(tA - A^T)^{-1} conj(w) change by a non-Laurent amount under
    v -> v + (tA - A^T) x with w = e_j.

    The change equals ((tA - A^T) x)^T (t-1)(tA - A^T)^{-1} conj(e_j):
    it does not depend on v and is Z-linear in x, so some integer x is a
    witness exactly when some basis vector x = e_i is.  Returns the first
    such (e_i, j), scanning columns i and then rows j of the change
    matrix, or None when det(tA - A^T) divides every entry of it.
    """
    n = data.size
    numer, denom = from_seifert(data).form
    # (t-1) adj(tA - A^T) is -N^T, so the change at x = e_i, w = e_j is
    # -(N (tA - A^T))_ji; the sign does not affect divisibility
    change = numer * data.presentation
    for i, j in itertools.product(range(n), repeat=2):
        if not divides(denom, change[j, i]):
            return tuple(int(r == i) for r in range(n)), j
    return None


def check_kearton(data: SeifertData, entry: CatalogEntry) -> CheckResult:
    """The classical formula is ill-defined exactly on a nontrivial module.

    A witness passes; no witness passes only when det(tA - A^T) is a
    unit, i.e. the Alexander module is trivial, and fails otherwise.
    """
    witness = kearton_witness(data)
    if witness is not None:
        x, j = witness
        return CheckResult("kearton-ill-defined", True,
                           f"WITNESS FOUND x={list(x)}, w=e{j + 1}")
    if data.adjugate[1].is_unit():
        return CheckResult("kearton-ill-defined", True,
                           "no witness, the Alexander module is trivial")
    return CheckResult("kearton-ill-defined", False,
                       "no witness, but the Alexander module is nontrivial",
                       _counterexample(entry))


def check_mk(data: SeifertData, entry: CatalogEntry) -> CheckResult:
    """M_K assembles (hermitian and nonsingular), its determinant matches
    det(tA - A^T) up to a unit, and its signatures agree with the
    Levine-Tristram signatures on every arc between Alexander roots."""
    try:
        form = mk_matrix(data)
    except (ArithmeticError, ValueError) as exc:
        return CheckResult("mk-form", False, f"assembly failed: {exc}",
                           _counterexample(entry))
    if not form.determinant().is_unit_multiple_of(data.adjugate[1]):
        return CheckResult("mk-form", False,
                           "det(M_K) is not a unit multiple of det(tA - A^T)",
                           _counterexample(entry))
    lt, mk = signature_arcs(data, form)
    for arc, (lt_sig, mk_sig) in enumerate(itertools.zip_longest(lt, mk), 1):
        if lt_sig != mk_sig:
            return CheckResult(
                "mk-form", False,
                f"sign(M_K) = {mk_sig} but Levine-Tristram = {lt_sig} on arc {arc} of {len(lt)}",
                _counterexample(entry))
    return CheckResult("mk-form", True,
                       f"hermitian, det matches, signatures agree on all arcs ({len(lt)})")


def check_fibred_specialization(data: FibredData, entry: CatalogEntry) -> CheckResult:
    """Dual-surface formula with (P, id, J) matches the fibred pairing."""
    eye = Matrix.identity(ZZ, data.size)
    return _agree_on_generators("fibred-specialization", entry,
                                DualSurfaceData(data.monodromy, eye, data.intersection),
                                from_fibred(data), eye)


def verify_entry(entry: CatalogEntry, trials: int = 25,
                 seed: int = 0) -> list[CheckResult]:
    """Run the full property suite appropriate to the entry's kind."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = random.Random(seed)
    data = entry.data()
    if isinstance(data, DualSurfaceData):
        return [check_sesquilinear(from_dual_surface(data), entry, rng, trials)]
    if isinstance(data, SeifertData):
        pairing, exact = from_seifert(data), (check_consistency, check_mk, check_kearton)
    else:
        pairing, exact = from_fibred(data), (check_fibred_specialization,)
    return [check(pairing, entry, rng, trials)
            for check in (check_well_defined, check_sesquilinear,
                          check_hermitian, check_nonsingular)] + \
        [check(data, entry) for check in exact]


def verify_random(genus: int, count: int, trials: int = 5,
                  seed: int = 0) -> list[CheckResult]:
    """Run the Seifert suite over seeded random matrices.

    Stops at the first failing instance so the counterexample stays
    minimal; otherwise aggregates one result line per property.
    """
    if count < 1:
        raise ValueError(f"need at least one random instance, got {count}")
    for i in range(count):
        entry_seed = seed + i
        data = random_seifert(genus, 3, entry_seed)
        entry = seifert_entry(data, name=f"random-{genus}-{entry_seed}")
        results = verify_entry(entry, trials=trials, seed=entry_seed)
        for res in results:
            if not res.passed:
                return [res]
    return [CheckResult(res.name, True, f"{count} random instances, genus {genus}")
            for res in results]
