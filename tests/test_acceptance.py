"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
All equalities are exact (canonical forms over Z[t,t^-1] and Q/Lambda;
Q(t) appears only as reduced pairs num/den), and so are the signatures
(integer inertia on Sturm arcs).
"""

import cmath
import itertools
import random
import time

from blanchfield.catalog import builtin, random_seifert
from blanchfield.invariants import (IndeterminateSignatureError,
                                    alexander_polynomial,
                                    levine_tristram_signature, mk_signature)
from blanchfield.laurent import LaurentPoly
from blanchfield.matrix import LAURENT, ZZ, Matrix
from blanchfield.mkform import mk_matrix, standard_symplectic, symplectic_normalize
from blanchfield.pairing import (DualSurfaceData, SeifertData, as_laurent_vector,
                                 basis_vector, from_dual_surface, from_fibred,
                                 from_seifert, kearton_value)
from blanchfield.qmod import canonical_class
from blanchfield.qmod import RationalFunction as RF
from blanchfield.verify import check_mk, random_laurent, random_vector, seifert_entry

TREFOIL = builtin("trefoil").data()
FIG8 = builtin("figure-eight").data()
DELTA_TREFOIL = LaurentPoly.parse("t - 1 + t^-1")


def _report(name: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = "" if elapsed is None else f"  [{elapsed:.2f}s]"
    print(f"{name}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, name


def _corpus(count: int, max_genus: int, base_seed: int) -> list[SeifertData]:
    out = []
    for i in range(count):
        genus = (i % max_genus) + 1
        out.append(random_seifert(genus, 3, base_seed + i))
    return out


def test_criterion_1_trefoil_pins():
    t0 = time.perf_counter()
    ok = alexander_polynomial(TREFOIL) == DELTA_TREFOIL
    pairing = from_seifert(TREFOIL)
    e1 = basis_vector(2, 0)
    # (t-1)^2 / (t^2 - t + 1), equivalently -t/(t^2 - t + 1) mod Lambda
    target = canonical_class(RF(LaurentPoly.parse("t^2 - 2t + 1"),
                                LaurentPoly.parse("t^2 - t + 1")))
    ok = ok and pairing.value(e1, e1) == target
    ok = ok and str(target) == "(-t)/(t^2 - t + 1)"
    elapsed = time.perf_counter() - t0
    _report("1 trefoil pins (Delta, Bl(e1,e1))", ok and elapsed < 1.0, elapsed)


def test_criterion_2_figure_eight_pins():
    t0 = time.perf_counter()
    delta = alexander_polynomial(FIG8)
    ok = delta == LaurentPoly.parse("-t + 3 - t^-1")
    ok = ok and sum(delta.coeffs) == 1  # Delta(1) = 1
    ok = ok and levine_tristram_signature(FIG8, -1) == 0
    elapsed = time.perf_counter() - t0
    _report("2 figure-eight pins (Delta, sigma_-1)", ok and elapsed < 1.0, elapsed)


def test_criterion_3_well_definedness_200():
    t0 = time.perf_counter()
    rng = random.Random(300)
    failures = 0
    for data in _corpus(200, 3, 3000):
        pairing = from_seifert(data)
        n = data.size
        for _ in range(5):
            v, w, x = (random_vector(rng, n) for _ in range(3))
            shift = pairing.presentation.mul_vec(x)
            base = pairing.value(v, w)
            v2 = tuple(a + s for a, s in zip(v, shift))
            w2 = tuple(a + s for a, s in zip(w, shift))
            if pairing.value(v2, w) != base or pairing.value(v, w2) != base:
                failures += 1
    elapsed = time.perf_counter() - t0
    _report("3 well-definedness (200 matrices, both slots)",
            failures == 0 and elapsed < 60.0, elapsed)


def test_criterion_4_hermitian_sesquilinear_200():
    t0 = time.perf_counter()
    rng = random.Random(400)
    failures = 0
    for data in _corpus(200, 3, 3000):  # same corpus as criterion 3
        pairing = from_seifert(data)
        n = data.size
        for _ in range(5):
            v, w = random_vector(rng, n), random_vector(rng, n)
            if pairing.value(v, w) != pairing.value(w, v).conjugate():
                failures += 1
            p, q = random_laurent(rng), random_laurent(rng)
            lhs = pairing.value(tuple(p * e for e in v), tuple(q * e for e in w))
            rep = pairing.value(v, w).representative()
            rhs = canonical_class(RF(LaurentPoly(0, rep.num) * (p * q.conjugate()),
                                     LaurentPoly(0, rep.den)))
            if lhs != rhs:
                failures += 1
    elapsed = time.perf_counter() - t0
    _report("4 hermitian + sesquilinear (same corpus)", failures == 0, elapsed)


def test_criterion_5_nonsingularity_50():
    t0 = time.perf_counter()
    rng = random.Random(500)
    failures = 0
    for i, data in enumerate(_corpus(50, 2, 5000)):
        pairing = from_seifert(data)
        n = data.size
        basis = [basis_vector(n, k) for k in range(n)]
        for trial in range(10):
            if trial % 3 == 2:
                w = pairing.presentation.mul_vec(random_vector(rng, n))
            else:
                w = random_vector(rng, n)
            annihilated = all(pairing.value(e, w).is_zero() for e in basis)
            if annihilated != pairing.is_zero_element(w):
                failures += 1
    elapsed = time.perf_counter() - t0
    _report("5 nonsingularity biconditional (50 x 10)", failures == 0, elapsed)


def test_criterion_6_consistency_identity_100():
    t0 = time.perf_counter()
    rng = random.Random(600)
    failures = 0
    for data in _corpus(100, 3, 6000):
        a = data.matrix
        dual = from_dual_surface(DualSurfaceData(a, a.transpose(),
                                                 a - a.transpose()))
        seifert = from_seifert(data)
        al = a.to_ring(LAURENT)
        v, w = random_vector(rng, data.size), random_vector(rng, data.size)
        if dual.value(v, w) != seifert.value(al.mul_vec(v), al.mul_vec(w)):
            failures += 1
    elapsed = time.perf_counter() - t0
    _report("6 dual-surface/Seifert consistency (100 runs)", failures == 0, elapsed)


def test_criterion_7_fibred_cross_check():
    t0 = time.perf_counter()
    fib = builtin("trefoil-fibred").data()
    pairing = from_fibred(fib)
    ok = pairing.presentation.det().is_unit_multiple_of(
        alexander_polynomial(TREFOIL))
    rng = random.Random(700)
    n = pairing.size
    for _ in range(25):
        # suite 3: well-definedness in both slots
        v, w, x = (random_vector(rng, n) for _ in range(3))
        shift = pairing.presentation.mul_vec(x)
        base = pairing.value(v, w)
        ok = ok and pairing.value(tuple(a + s for a, s in zip(v, shift)), w) == base
        ok = ok and pairing.value(v, tuple(a + s for a, s in zip(w, shift))) == base
        # suite 4: hermitian and sesquilinear
        ok = ok and pairing.value(v, w) == pairing.value(w, v).conjugate()
        p, q = random_laurent(rng), random_laurent(rng)
        lhs = pairing.value(tuple(p * e for e in v), tuple(q * e for e in w))
        rep = base.representative()
        rhs = canonical_class(RF(LaurentPoly(0, rep.num) * (p * q.conjugate()),
                                 LaurentPoly(0, rep.den)))
        ok = ok and lhs == rhs
        # suite 5: nonsingularity biconditional
        annihilated = all(pairing.value(basis_vector(n, k), w).is_zero()
                          for k in range(n))
        ok = ok and annihilated == pairing.is_zero_element(w)
    elapsed = time.perf_counter() - t0
    _report("7 fibred cross-check (det + suites 3-5)", ok, elapsed)


def test_criterion_8_mk_suite_100():
    t0 = time.perf_counter()
    rng = random.Random(800)
    failures = 0
    for data in _corpus(100, 3, 8000):
        try:
            form = mk_matrix(data)  # entries in Lambda and hermitian checked inside
        except ArithmeticError:
            failures += 1
            continue
        if not form.determinant().is_unit_multiple_of(
                from_seifert(data).presentation.det()):
            failures += 1
            continue
        done = 0
        while done < 8:
            z = cmath.exp(1j * rng.uniform(0.05, cmath.pi - 0.05))
            try:
                if levine_tristram_signature(data, z) != mk_signature(form, z):
                    failures += 1
                done += 1
            except IndeterminateSignatureError:
                continue
    elapsed = time.perf_counter() - t0
    _report("8 M_K suite (100 matrices, 8 z-samples each)",
            failures == 0 and elapsed < 120.0, elapsed)


def test_criterion_8_check_mk_on_every_arc():
    # the exact form of criterion 8: verify's mk-form check compares the
    # two signature step functions on every arc, on the same corpus
    t0 = time.perf_counter()
    results = [check_mk(data, seifert_entry(data)) for data in _corpus(100, 3, 8000)]
    elapsed = time.perf_counter() - t0
    _report("8b verify mk-form on every arc (same 100 matrices)",
            all(r.passed for r in results), elapsed)


def test_criterion_9_kearton_negative_control():
    t0 = time.perf_counter()
    pres = from_seifert(TREFOIL).presentation
    witnesses = []
    for x in itertools.product(range(-2, 3), repeat=2):
        if not any(x):
            continue
        shifted = pres.mul_vec(as_laurent_vector(x))
        for j in range(2):
            diff = kearton_value(TREFOIL, shifted, basis_vector(2, j))
            if not diff.is_laurent():
                witnesses.append((x, j))
    # pinned witness: x = (1, 0), w = e1 changes the value by
    # t(t-1)(t-2)/(t^2 - t + 1), which is not a Laurent polynomial
    pinned = kearton_value(TREFOIL, pres.mul_vec(as_laurent_vector((1, 0))),
                           basis_vector(2, 0))
    expected = RF(LaurentPoly.parse("t^3 - 3t^2 + 2t"),
                  LaurentPoly.parse("t^2 - t + 1"))
    ok = bool(witnesses) and ((1, 0), 0) in witnesses
    ok = ok and pinned == expected and not pinned.is_laurent()
    elapsed = time.perf_counter() - t0
    _report("9 Kearton formula ill-defined (witness in {-2..2}^2)", ok, elapsed)


def test_criterion_10_symplectic_round_trip_100():
    t0 = time.perf_counter()
    rng = random.Random(1000)
    failures = 0
    for _ in range(100):
        k = rng.randint(1, 3)
        n = 2 * k
        q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            a, b = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for col in range(n):
                q[a][col] += c * q[b][col]
        qm = Matrix.from_int_rows(ZZ, q)
        skew = qm.transpose() * standard_symplectic(k) * qm
        p = symplectic_normalize(skew)
        if p * skew * p.transpose() != standard_symplectic(k):
            failures += 1
        if p.det() not in (1, -1):
            failures += 1
    elapsed = time.perf_counter() - t0
    _report("10 symplectic normalization round-trip (100 forms)",
            failures == 0, elapsed)
