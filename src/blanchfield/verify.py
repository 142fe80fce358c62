"""Executable property checks for presented pairings.

Each check runs seeded random trials and reports pass/fail with a
replayable counterexample (entry grammar plus vectors in the CLI's
comma-separated Laurent format).  The CLI ``verify`` command prints the
reports; the test suite asserts them.
"""

from __future__ import annotations

import cmath
import random
from typing import Sequence

from .catalog import CatalogEntry, _entry, random_seifert, render_entry
from .invariants import (IndeterminateSignatureError, levine_tristram_signature,
                         mk_signature)
from .laurent import LaurentPoly, divides
from .matrix import LAURENT, ZZ, Matrix, Record
from .mkform import mk_matrix
from .pairing import (DualSurfaceData, DualSurfaceEvaluator, FibredData,
                      PresentedPairing, SeifertData, basis_vector,
                      from_dual_surface, from_fibred, from_seifert,
                      kearton_form)

# unit-circle points at which check_mk compares sign(M_K) with Levine-Tristram
MK_Z_SAMPLES = 8


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


def check_well_defined(pairing: PresentedPairing, entry: CatalogEntry,
                       rng: random.Random, trials: int) -> CheckResult:
    """Pairing values are unchanged by shifts along the presentation, both slots."""
    n = pairing.size
    for _ in range(trials):
        if n == 0:
            break
        v, w, x = (random_vector(rng, n) for _ in range(3))
        shift = pairing.presentation.mul_vec(x)
        base = pairing.value(v, w)
        v2 = tuple(a + b for a, b in zip(v, shift))
        w2 = tuple(a + b for a, b in zip(w, shift))
        if pairing.value(v2, w) != base or pairing.value(v, w2) != base:
            return CheckResult("well-definedness", False,
                               "value moved under a presentation shift",
                               _counterexample(entry, v=v, w=w, x=x))
    return CheckResult("well-definedness", True, f"{trials} trials")


def check_sesquilinear(pairing: PresentedPairing | DualSurfaceEvaluator,
                       entry: CatalogEntry, rng: random.Random,
                       trials: int) -> CheckResult:
    """value(p v, q w) = p * value(v, w) * conj(q) as classes."""
    n = pairing.size
    for _ in range(trials):
        if n == 0:
            break
        v, w = random_vector(rng, n), random_vector(rng, n)
        p, q = random_laurent(rng), random_laurent(rng)
        lhs = pairing.value(tuple(p * e for e in v), tuple(q * e for e in w))
        rhs = pairing.value(v, w) * (p * q.conjugate())
        if lhs != rhs:
            return CheckResult("sesquilinearity", False,
                               f"fails for p={p}, q={q}",
                               _counterexample(entry, v=v, w=w, p=(p,), q=(q,)))
    return CheckResult("sesquilinearity", True, f"{trials} trials")


def check_hermitian(pairing: PresentedPairing, entry: CatalogEntry,
                    rng: random.Random, trials: int) -> CheckResult:
    """value(v, w) equals the conjugate class of value(w, v)."""
    n = pairing.size
    for _ in range(trials):
        if n == 0:
            break
        v, w = random_vector(rng, n), random_vector(rng, n)
        if pairing.value(v, w) != pairing.value(w, v).conjugate():
            return CheckResult("hermitian", False, "conjugate symmetry fails",
                               _counterexample(entry, v=v, w=w))
    return CheckResult("hermitian", True, f"{trials} trials")


def check_nonsingular(pairing: PresentedPairing, entry: CatalogEntry,
                      rng: random.Random, trials: int) -> CheckResult:
    """value(e_i, w) = 0 for all i exactly when w is zero in the module."""
    n = pairing.size
    basis = [basis_vector(n, i) for i in range(n)]
    for trial in range(trials):
        if n == 0:
            break
        if trial % 3 == 2:
            # exercise the zero side with an element of the image
            x = random_vector(rng, n)
            w = pairing.presentation.mul_vec(x)
        else:
            w = random_vector(rng, n)
        all_zero = all(pairing.value(e, w).is_zero() for e in basis)
        if all_zero != pairing.is_zero_element(w):
            return CheckResult("nonsingularity", False,
                               f"annihilated-by-basis {all_zero} but "
                               f"zero-in-module {not all_zero}",
                               _counterexample(entry, w=w))
    return CheckResult("nonsingularity", True, f"{trials} trials")


def check_consistency(data: SeifertData, entry: CatalogEntry,
                      rng: random.Random, trials: int) -> CheckResult:
    """Dual-surface formula with (A, A^T, A - A^T) matches the Seifert formula.

    The dual-surface evaluator applied to (v, w) must equal the class of
    (Av)^T (t-1)(A - tA^T)^{-1} conj(Aw).
    """
    n = data.size
    if n == 0:
        return CheckResult("consistency", True, "vacuous for genus 0")
    dual = from_dual_surface(DualSurfaceData(
        data.matrix, data.matrix.transpose(),
        data.matrix - data.matrix.transpose()))
    seifert = from_seifert(data)
    a = data.matrix.to_ring(LAURENT)
    for _ in range(trials):
        v, w = random_vector(rng, n), random_vector(rng, n)
        lhs = dual.value(v, w)
        rhs = seifert.value(a.mul_vec(v), a.mul_vec(w))
        if lhs != rhs:
            return CheckResult("consistency", False,
                               "dual-surface and Seifert formulas disagree",
                               _counterexample(entry, v=v, w=w))
    return CheckResult("consistency", True, f"{trials} trials")


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
    numer, denom = kearton_form(data)
    # entry (j, i) is the change of the formula at x = e_i, w = e_j
    change = numer.transpose() * data.presentation
    for i in range(n):
        for j in range(n):
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


def check_mk(data: SeifertData, entry: CatalogEntry,
             rng: random.Random) -> CheckResult:
    """M_K assembles (hermitian and nonsingular), its determinant matches
    det(tA - A^T) up to a unit, and its signatures agree with the
    Levine-Tristram signatures at sampled points."""
    try:
        form = mk_matrix(data)
    except (ArithmeticError, ValueError) as exc:
        return CheckResult("mk-form", False, f"assembly failed: {exc}",
                           _counterexample(entry))
    if not form.determinant().is_unit_multiple_of(data.adjugate[1]):
        return CheckResult("mk-form", False,
                           "det(M_K) is not a unit multiple of det(tA - A^T)",
                           _counterexample(entry))
    if data.size:
        done = 0
        attempts = 0
        while done < MK_Z_SAMPLES and attempts < 40 * MK_Z_SAMPLES:
            attempts += 1
            theta = rng.uniform(0.05, cmath.pi - 0.05)
            z = cmath.exp(1j * theta)
            try:
                lt = levine_tristram_signature(data, z)
                mk = mk_signature(form, z)
            except IndeterminateSignatureError:
                continue
            if lt != mk:
                return CheckResult(
                    "mk-form", False,
                    f"sign(M_K(z)) = {mk} but Levine-Tristram = {lt} at theta={theta:.4f}",
                    _counterexample(entry))
            done += 1
        if done < MK_Z_SAMPLES:
            return CheckResult("mk-form", False,
                               "could not find enough determinate sample points",
                               _counterexample(entry))
    return CheckResult("mk-form", True,
                       f"hermitian, det matches, {MK_Z_SAMPLES} signature samples")


def check_fibred_specialization(data: FibredData, entry: CatalogEntry) -> CheckResult:
    """Dual-surface evaluator with (P, id, J) matches the fibred pairing
    on all generator pairs."""
    n = data.size
    pairing = from_fibred(data)
    dual = from_dual_surface(DualSurfaceData(
        data.monodromy, Matrix.identity(ZZ, n), data.intersection))
    for i in range(n):
        for j in range(n):
            ei, ej = basis_vector(n, i), basis_vector(n, j)
            if dual.value(ei, ej) != pairing.value(ei, ej):
                return CheckResult("fibred-specialization", False,
                                   f"generator pair ({i + 1},{j + 1}) differs",
                                   _counterexample(entry))
    return CheckResult("fibred-specialization", True, f"{n * n} generator pairs")


def verify_entry(entry: CatalogEntry, trials: int = 25,
                 seed: int = 0) -> list[CheckResult]:
    """Run the full property suite appropriate to the entry's kind."""
    rng = random.Random(seed)
    data = entry.data()
    if isinstance(data, DualSurfaceData):
        return [check_sesquilinear(from_dual_surface(data), entry, rng, trials)]
    pairing = from_seifert(data) if isinstance(data, SeifertData) else from_fibred(data)
    results = [check(pairing, entry, rng, trials)
               for check in (check_well_defined, check_sesquilinear,
                             check_hermitian, check_nonsingular)]
    if isinstance(data, SeifertData):
        results.append(check_consistency(data, entry, rng, trials))
        results.append(check_mk(data, entry, rng))
        results.append(check_kearton(data, entry))
    else:
        results.append(check_fibred_specialization(data, entry))
    return results


def verify_random(genus: int, count: int, trials: int = 5,
                  seed: int = 0) -> list[CheckResult]:
    """Run the Seifert suite over seeded random matrices.

    Stops at the first failing instance so the counterexample stays
    minimal; otherwise aggregates one result line per property.
    """
    names = ["well-definedness", "sesquilinearity", "hermitian",
             "nonsingularity", "consistency", "mk-form", "kearton-ill-defined"]
    for i in range(count):
        entry_seed = seed + i
        data = random_seifert(genus, 3, entry_seed)
        entry = seifert_entry(data, name=f"random-{genus}-{entry_seed}")
        for res in verify_entry(entry, trials=trials, seed=entry_seed):
            if not res.passed:
                return [res]
    return [CheckResult(name, True, f"{count} random instances, genus {genus}")
            for name in names]
