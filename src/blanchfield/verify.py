"""Executable property checks for presented pairings.

A pairing of a knot or fibred 3-manifold is a matrix form N / d on the
module presented by P, v, w -> v^T N conj(w) / d, so each defining
property holds on all vectors exactly when it holds on generator pairs.
Three checks decide theirs exactly that way, with no random draws:

  * well-definedness: d divides every entry of P^T N and of N conj(P);
  * hermitian: N / d agrees with conj(N)^T / conj(d) in Q(t)/Lambda on
    every generator pair;
  * nonsingularity: the adjoint H -> Hom(H, Q(t)/Lambda) is an
    isomorphism, decided by one certificate read from the same two
    products over d (see check_nonsingular); the check fails where the
    certificate does not apply.

Consistency and fibred-specialization compare the dual-surface form
with the Seifert or fibred form on every generator pair, with the same
helper as hermitian.  Both forms are read off the entry's one
elimination, which the comparison tests (see check_consistency).
Mk-form compares the signatures of M_K with the Levine-Tristram
signatures on every arc of the unit circle.

Sesquilinearity is the one sampled check: it evaluates seeded random
vectors through the packed pairing kernel, and it is the only check on
a dual-surface entry.  The trials and seed arguments drive it alone.
A module of rank 0 makes every check vacuous.  Each check reports
pass/fail with a replayable counterexample (entry grammar plus vectors
in the CLI's comma-separated Laurent format).  The CLI ``verify``
command prints the reports; the test suite asserts them.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

from . import _polyops
from .catalog import CatalogEntry, _entry, random_seifert, render_entry
from .invariants import signature_arcs
from .laurent import LaurentPoly, divides
from .matrix import LAURENT, ZZ, Matrix, Record
from .mkform import mk_matrix
from .pairing import (DualSurfaceData, FibredData, PresentedPairing, SeifertData,
                      _dual_surface_form, basis_vector, from_seifert)
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
    return _entry(name, "seifert", A=data.matrix.entries)


def _counterexample(entry: CatalogEntry, **vectors) -> str:
    lines = [render_entry(entry).rstrip()]
    for key, vec in vectors.items():
        lines.append(f"{key}: {format_vector(vec)}")
    return "\n".join(lines) + "\n"


def check_well_defined(pairing: PresentedPairing, entry: CatalogEntry,
                       adjoint: tuple[Matrix, Matrix]) -> CheckResult:
    """The form N / d vanishes when either vector presents zero.

    Exact, on generators: value(P x, w) = x^T (P^T N) conj(w) / d and
    value(v, P x) = v^T (N conj(P)) conj(x) / d, so the form vanishes on
    the image of the presentation P in either slot, for all vectors,
    exactly when d divides every entry of P^T N and of N conj(P), the
    pair adjoint = _adjoint(pairing).
    """
    name, n = "well-definedness", pairing.size
    if n == 0:
        return CheckResult(name, True, "vacuous for genus 0")
    pres, denom = pairing.presentation, pairing.form[1]
    left, right = adjoint
    for i, j in itertools.product(range(n), repeat=2):
        if not divides(denom, left[i, j]):
            return CheckResult(name, False, f"value(P e{i + 1}, e{j + 1}) is not 0",
                               _counterexample(entry, v=pres.column(i),
                                               w=basis_vector(n, j)))
        if not divides(denom, right[i, j]):
            return CheckResult(name, False, f"value(e{i + 1}, P e{j + 1}) is not 0",
                               _counterexample(entry, v=basis_vector(n, i),
                                               w=pres.column(j)))
    return CheckResult(name, True, f"{n * n} generator pairs")


def check_sesquilinear(pairing: PresentedPairing, entry: CatalogEntry,
                       rng: random.Random, trials: int) -> CheckResult:
    """value(p v, q w) = p * value(v, w) * conj(q) as classes, on seeded
    random vectors: the one sampled check, and the only one on a
    dual-surface entry.  A module of rank 0 has nothing to draw, so the
    check is vacuous there."""
    name, n = "sesquilinearity", pairing.size
    if n == 0:
        return CheckResult(name, True, "vacuous for genus 0")
    for _ in range(trials):
        v, w = random_vector(rng, n), random_vector(rng, n)
        p, q = random_laurent(rng), random_laurent(rng)
        lhs = pairing.value(tuple(p * e for e in v), tuple(q * e for e in w))
        if lhs != pairing.value(v, w) * (p * q.conjugate()):
            return CheckResult(name, False, f"fails for p={p}, q={q}",
                               _counterexample(entry, v=v, w=w, p=(p,), q=(q,)))
    return CheckResult(name, True, f"{trials} trials")


def check_hermitian(pairing: PresentedPairing, entry: CatalogEntry) -> CheckResult:
    """value(v, w) equals the conjugate class of value(w, v).

    Exact, on generators: the conjugate of value(w, v) is
    v^T conj(N)^T conj(w) / conj(d), so the form N / d is hermitian
    exactly when it agrees with conj(N)^T / conj(d) on every generator
    pair.
    """
    numer, denom = pairing.form
    return _agree_on_generators("hermitian", entry, (numer, denom),
                                (numer.conjugate_transpose(), denom.conjugate()))


def check_nonsingular(pairing: PresentedPairing, entry: CatalogEntry,
                      adjoint: tuple[Matrix, Matrix]) -> CheckResult:
    """The adjoint w -> value(-, w), from the module H = Lambda^n / P Lambda^n
    to Hom(H, Q(t)/Lambda), is an isomorphism.

    The map: a homomorphism H -> Q(t)/Lambda is its values f on the
    generators, subject to P^T f = 0; as det P != 0, y = P^T f identifies
    Hom(H, Q(t)/Lambda) with Lambda^n / P^T Lambda^n.  The adjoint has
    f = N conj(w) / d, so y = Z conj(w) for Z = P^T N / d: it is the map
    Lambda^n / conj(P) Lambda^n -> Lambda^n / P^T Lambda^n induced by Z,
    read on conj(w).  With Y = N conj(P) / d, Z conj(P) = P^T Y.  Z and
    Y are the products adjoint = (P^T N, N conj(P)) over d, Laurent
    exactly when the form is well-defined; if one is not, there is no
    adjoint, and the check fails.

    The certificate.  Let z be a gcd in Lambda of every entry of Z and Y
    (0 when all vanish), and ask that Z and Y be z times invertible
    matrices: z = 0, or det(Z/z) and det(Y/z) units.  If z = 0 the
    adjoint is zero, an isomorphism exactly when H = 0, i.e. when det P
    is a unit.  Otherwise Z/z is an automorphism of Lambda^n carrying
    conj(P) Lambda^n onto (Z/z) conj(P) Lambda^n = P^T (Y/z) Lambda^n =
    P^T Lambda^n, so it induces an isomorphism of the quotients, and the
    adjoint is z times it: an isomorphism exactly when multiplication by
    z is an automorphism of M = Lambda^n / P^T Lambda^n.  An onto
    endomorphism of a finitely generated module over a commutative ring
    is one to one (Vasconcelos 1969), so that holds exactly when zM = M,
    that is, when P^T presents zero over Lambda / (z): when det P is a
    unit mod z, i.e. z and det P generate Lambda.  _generate_lambda
    decides both cases, by the resultant.  Without the certificate, or
    when the resultant is left unfactored, the check fails and names the
    missing certificate.

    Why that is exact on every valid entry:
      * Seifert, P = tA - A^T: conj(P) = -t^-1 P^T and P^T (1 - t)
        adj(P)^T = (1 - t) det(P) I, so Z = (1 - t) I and
        Y = -t^-1 (1 - t) I; z = t - 1, and Res(t - 1, Delta) =
        +-Delta(1) = +-1, so every Seifert entry passes.
      * Fibred, P = tM - id with monodromy M and N / d =
        J (t^-1 M - id)^-1: M^T J M = J gives Z = -t J M^-1 and Y = J.
        As abelian groups H and its dual are both Z^n, with t acting by
        M^+-1, and the integer matrix of the adjoint is -M^-T J M^-1; so
        the form is nonsingular exactly when det J = +-1.  Then z = 1,
        det(Z) = +-t^n det J and det(Y) = det J are units, and
        Res(1, det P) = 1: z = 1 certifies it.  Every other fibred form is
        singular and fails: for J = c J0 with |c| > 1 and det J0 = +-1,
        z = c is certified and disproved, as det(tM - id) has ends +-1
        and so is no unit mod a prime of c; any other fails for want of
        a certificate.
    """
    name, n = "nonsingularity", pairing.size
    if n == 0:
        return CheckResult(name, True, "vacuous for genus 0")
    denom = pairing.form[1]
    z_y = [_divided(m, denom) for m in adjoint]
    if None in z_y:
        return CheckResult(name, False, "the form is not well-defined, so it has no adjoint",
                           _counterexample(entry))
    z = _gcd(e for m in z_y for row in m.entries for e in row)
    if z and not all(_divided(m, z).det().is_unit() for m in z_y):
        return CheckResult(name, False, f"no certificate: det(Z/z) or det(Y/z) is not "
                           f"a unit, z = {z}", _counterexample(entry))
    onto, certificate = _generate_lambda(z, pairing.data.determinant())
    detail = f"Z and Y are z times invertible matrices, z = {z}, " + \
        (certificate if onto is not None else f"no certificate: {certificate}")
    return CheckResult(name, bool(onto), detail, None if onto else _counterexample(entry))


def _adjoint(pairing: PresentedPairing) -> tuple[Matrix, Matrix]:
    """(P^T N, N conj(P)) of the pairing's presentation P and form N / d:
    well-definedness and nonsingularity read both."""
    pres, numer = pairing.presentation, pairing.form[0]
    return pres.transpose() * numer, numer * pres.conjugate()


def _divided(m: Matrix, d: LaurentPoly) -> Matrix | None:
    """m / d, or None unless d divides every entry of m."""
    try:
        return m.map_entries(lambda e: e.exact_div(d))
    except ArithmeticError:
        return None


def _gcd(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """A gcd in Lambda of the Laurent polynomials: the integer content
    times the primitive gcd over Z[t], powers of t dropped; 0 when all
    vanish."""
    content, primitive = 0, ()
    for p in polys:
        content = math.gcd(content, _polyops.content(p.coeffs))
        primitive = _polyops.gcd_poly(primitive, p.coeffs)
    return LaurentPoly._of(0, _polyops.scale(primitive, content))


def _generate_lambda(z: LaurentPoly, delta: LaurentPoly) -> tuple[bool | None, str]:
    """Do z and delta != 0 generate the unit ideal of Lambda?  (answer,
    certificate), or (None, reason) when no certificate is in reach.

    Units t^k drop out, so f and g are the coefficient tuples of z and
    delta: integer polynomials with nonzero constant terms.  Lambda is
    a finitely generated Z-algebra, so each of its maximal ideals meets Z
    in some pZ: it is (p, h) for a prime p and an h irreducible mod p
    other than t, and it holds f and g exactly when h divides both
    mod p, t-powers stripped; then it holds every integer of the ideal
    (f, g), such as the resultant R = Res(f, g) = a f + b g, so p | R.
    Hence:
      * a common factor mod a prime p disproves (f, g) = Lambda, as does
        R = 0, a common factor k over Q: (f, g) lies in (k), and k is no
        unit as k(0) != 0;
      * when every prime of R is known (R = +-1 has none) and none gives
        a common factor, no maximal ideal holds f and g: they generate
        Lambda.
    """
    f, g = z.coeffs, delta.coeffs
    if not f:
        return (True, "det P a unit") if delta.is_unit() else (False, "det P not a unit")
    if len(f) == len(g) == 1:
        r = math.gcd(f[0], g[0])  # (f, g) is gcd(f, g) Z[t] for constants
    else:
        r = _sylvester(f, g).det()
    if r == 0:
        return False, "z and det P share a factor over Q"
    primes, rest = _prime_factors(r)
    for p in primes:
        strip = [LaurentPoly._of(0, [c % p for c in h]).coeffs for h in (f, g)]
        if len(_polyops.gcd_mod(*strip, p)) != 1:
            return False, f"z and det P share a factor mod {p}"
    if rest != 1:
        return None, f"resultant {r} not factored"
    return True, f"|resultant(z, det P)| = {abs(r)}" + \
        (f", no common factor mod {', '.join(map(str, primes))}" if primes else "")


def _sylvester(f: Sequence[int], g: Sequence[int]) -> Matrix:
    """The Sylvester matrix of f and g (not both constant): its determinant
    is +-Res(f, g)."""
    m, k = len(f) - 1, len(g) - 1
    return Matrix.from_int_rows(
        ZZ, [[0] * i + list(f) + [0] * (k - 1 - i) for i in range(k)]
        + [[0] * i + list(g) + [0] * (m - 1 - i) for i in range(m)])


def _prime_factors(r: int) -> tuple[list[int], int]:
    """The primes dividing r != 0 found by trial division below 2^12, and
    the part of |r| they leave: 1 when every prime of r is found."""
    r, primes, p = abs(r), [], 2
    while p * p <= r and p < 1 << 12:
        if r % p == 0:
            primes.append(p)
            while r % p == 0:
                r //= p
        p += 1
    if 1 < r < p * p:  # no factor below p, so r is prime
        primes.append(r)
        r = 1
    return primes, r


def _agree_on_generators(name: str, entry: CatalogEntry,
                         form: tuple[Matrix, LaurentPoly],
                         other: tuple[Matrix, LaurentPoly]) -> CheckResult:
    """Do the forms N1 / d1 and N2 / d2 agree, as classes in Q/Lambda, on
    every generator pair (e_i, e_j)?  Both are matrix forms v^T N conj(w) / d,
    so agreeing on every generator pair, they agree on all vectors."""
    (numer, denom), (numer2, denom2) = form, other
    n = numer.rows
    for i, j in itertools.product(range(n), repeat=2):
        if QModLambda._pair(numer[i, j], denom) != QModLambda._pair(numer2[i, j], denom2):
            return CheckResult(name, False, f"generator pair ({i + 1},{j + 1}) differs",
                               _counterexample(entry, v=basis_vector(n, i),
                                               w=basis_vector(n, j)))
    return CheckResult(name, True, f"{n * n} generator pairs" if n else "vacuous for genus 0")


def _transported(form: tuple[Matrix, LaurentPoly], x: Matrix) -> tuple[Matrix, LaurentPoly]:
    """The form (xv)^T N conj(xw) / d of the integer matrix x and the form
    N / d: x^T N x / d, as conj(x) = x."""
    numer, denom = form
    x = x.to_ring(LAURENT)
    return x.transpose() * numer * x, denom


def _specialized_dual_form(data: SeifertData | FibredData, iota_plus: Matrix,
                           intersection: Matrix) -> tuple[Matrix, LaurentPoly]:
    """The dual form of a specialization with i+ - t^{-1} i- = t^{-1} P for
    the data's presentation P, from P's cached elimination."""
    adj, det = data.adjugate
    return _dual_surface_form((adj, LaurentPoly.t_power(-1) * det), iota_plus, intersection)


def check_consistency(data: SeifertData, entry: CatalogEntry) -> CheckResult:
    """Dual-surface formula with (A, A^T, A - A^T) matches the Seifert formula:
    its value of (v, w) is (Av)^T (t-1)(A - tA^T)^{-1} conj(Aw), for all v, w.

    Both forms read the one elimination (adj P, det P) of P = tA - A^T:
    the dual form is -t (adj P A)^T (A - A^T) / det P, and the transported
    Seifert form minus it is -A^T (P adj P)^T / det P, which is -A^T, zero
    in Q(t)/Lambda, when P adj P = det P * I: the check tests the shared
    elimination.
    """
    a = data.matrix
    return _agree_on_generators("consistency", entry,
                                _specialized_dual_form(data, a, a - a.transpose()),
                                _transported(data.form, a))


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
    if data.determinant().is_unit():
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
    if not form.determinant().is_unit_multiple_of(data.determinant()):
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
    """Dual-surface formula with (P, id, J) matches the fibred pairing; both
    read the one elimination of tP - id, as in check_consistency."""
    return _agree_on_generators("fibred-specialization", entry,
                                _specialized_dual_form(data, data.monodromy, data.intersection),
                                data.form)


def verify_entry(entry: CatalogEntry, trials: int = 25,
                 seed: int = 0) -> list[CheckResult]:
    """Run the full property suite appropriate to the entry's kind."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = random.Random(seed)
    data = entry.data()
    pairing = PresentedPairing(data)
    if isinstance(data, DualSurfaceData):
        return [check_sesquilinear(pairing, entry, rng, trials)]
    exact = ((check_consistency, check_mk, check_kearton) if isinstance(data, SeifertData)
             else (check_fibred_specialization,))
    adjoint = _adjoint(pairing)
    return [check_well_defined(pairing, entry, adjoint),
            check_sesquilinear(pairing, entry, rng, trials),
            check_hermitian(pairing, entry),
            check_nonsingular(pairing, entry, adjoint)] + \
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
