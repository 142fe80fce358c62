"""The exact signature path: Sturm arcs, integer inertia and the 2^-40
input window, cross-checked against numpy's eigvalsh and sympy where
they are installed (neither is a runtime dependency)."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from blanchfield import _polyops
from blanchfield.catalog import builtin, random_seifert
from blanchfield.invariants import (IndeterminateSignatureError, _circle_polynomial,
                                    _embed, _inertia, _seifert_form,
                                    levine_tristram_signature, mk_signature,
                                    signature_profile)
from blanchfield.matrix import ZZ, Matrix
from blanchfield.mkform import mk_matrix
from blanchfield.pairing import SeifertData

TREFOIL = SeifertData(Matrix.from_int_rows(ZZ, [[-1, 1], [0, -1]]))
SEIFERT_BUILTINS = ("unknot", "trefoil", "figure-eight", "cinquefoil")


def signature_or_none(fn, *args):
    try:
        return fn(*args)
    except IndeterminateSignatureError:
        return None


def eigvalsh_signature(h):
    """Signature of a numerical hermitian matrix; None near singular."""
    np = pytest.importorskip("numpy")
    if not len(h):
        return 0
    eigs = np.linalg.eigvalsh(np.array(h, dtype=complex))
    if np.any(np.abs(eigs) < 1e-9 * np.max(np.abs(eigs))):
        return None
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


def lt_reference(data, z):
    a = [[complex(x) for x in row] for row in data.matrix.entries]
    n = len(a)
    return eigvalsh_signature([[(1 - z) * a[i][j] + (1 - z.conjugate()) * a[j][i]
                                for j in range(n)] for i in range(n)])


def evaluate(p, z):
    """A Laurent polynomial at a nonzero complex number, in floating point."""
    return sum(c * z ** (p.val + i) for i, c in enumerate(p.coeffs))


def mk_reference(form, z):
    return eigvalsh_signature([[evaluate(e, z) for e in row] for row in form.mk.entries])


def sympy_inertia(rows):
    """(positive, negative, zero) of a symmetric integer matrix from its
    characteristic polynomial: its roots are real, so Descartes' rule of
    signs counts them exactly."""
    sp = pytest.importorskip("sympy")
    if not rows:
        return 0, 0, 0
    x = sp.Symbol("x")
    coeffs = [int(c) for c in sp.Matrix(rows).charpoly(x).all_coeffs()[::-1]]
    zero = next(i for i, c in enumerate(coeffs) if c)

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return (changes(coeffs), changes([c * (-1) ** i for i, c in enumerate(coeffs)]), zero)


@pytest.mark.parametrize("genus", range(1, 7))
def test_signatures_match_eigvalsh_at_random_points(genus):
    rng = random.Random(genus)
    checked = 0
    for seed in range(10):
        data = random_seifert(genus, 3, 100 * genus + seed)
        form = mk_matrix(data)
        for _ in range(20):
            z = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            lt = signature_or_none(levine_tristram_signature, data, z)
            mk = signature_or_none(mk_signature, form, z)
            assert lt == mk == lt_reference(data, z) == mk_reference(form, z), (seed, z)
            checked += lt is not None
    assert checked > 190


@pytest.mark.parametrize("samples", [1, 3, 9, 32, 89, 120])
def test_profiles_match_eigvalsh(samples):
    datas = [builtin(name).data() for name in SEIFERT_BUILTINS]
    datas += [random_seifert(g, 3, 7 * g + samples) for g in range(1, 7)]
    for data in datas:
        profile = signature_profile(data, samples)
        assert [s for _, s in profile] == [
            lt_reference(data, cmath.exp(1j * theta)) for theta, _ in profile]


def test_trefoil_profile_marks_cyclotomic_roots():
    # the trefoil's Alexander root e^(i pi/3) is sample 2 of 5
    assert [s for _, s in signature_profile(TREFOIL, 5)] == [0, None, -2, -2, -2]


def test_repeated_alexander_roots():
    # trefoil # trefoil: Delta = (t - 1 + t^-1)^2, a double root at e^(i pi/3)
    data = SeifertData(Matrix.from_int_rows(
        ZZ, [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]))
    form = mk_matrix(data)
    assert [s for _, s in signature_profile(data, 5)] == [0, None, -4, -4, -4]
    for theta in (0.3, 1.0, 1.1, 3.0):
        z = cmath.exp(1j * theta)
        assert (levine_tristram_signature(data, z) == mk_signature(form, z)
                == (0 if theta < math.pi / 3 else -4))


@pytest.mark.parametrize("rows, expected", [
    ([], (0, 0, 0)),
    ([[0, 1], [1, 0]], (1, 1, 0)),
    ([[0, 0], [0, 0]], (0, 0, 2)),
    ([[1, 1], [1, 1]], (1, 0, 1)),
    ([[0, 2, 0], [2, 0, 0], [0, 0, 0]], (1, 1, 1)),
    ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], (1, 0, 2)),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2, 0)),
])
def test_inertia_pins(rows, expected):
    assert _inertia(rows) == expected
    if rows:
        assert sympy_inertia(rows) == expected


def test_inertia_of_zero_diagonal_hermitian():
    # H = [[0, 1, i, 0], [1, 0, 0, 2], [-i, 0, 0, 1 + i], [0, 2, 1 - i, 0]]
    re = [[0, 1, 0, 0], [1, 0, 0, 2], [0, 0, 0, 1], [0, 2, 1, 0]]
    im = [[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 1], [0, 0, -1, 0]]
    embedded = _embed(re, im)
    pos, neg, zero = _inertia(embedded)
    assert (pos, neg, zero) == sympy_inertia(embedded)
    # every eigenvalue of H appears twice; the zero diagonal gives trace 0
    assert pos % 2 == neg % 2 == zero == 0 and pos == neg == 4
    np = pytest.importorskip("numpy")
    h = np.array(re) + 1j * np.array(im)
    eigs = np.linalg.eigvalsh(h)
    assert (int(np.sum(eigs > 0)), int(np.sum(eigs < 0))) == (pos // 2, neg // 2)


def test_inertia_matches_sympy_on_random_symmetric_matrices():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        rank = rng.randint(0, n)
        # sum of rank signed squares of sparse vectors: often singular,
        # often with a zero diagonal
        rows = [[0] * n for _ in range(n)]
        for _ in range(rank):
            v = [rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
            sign = rng.choice((1, -1))
            for i in range(n):
                for j in range(n):
                    rows[i][j] += sign * v[i] * v[j]
        if rng.random() < 0.3:
            rows = [[0 if i == j else rows[i][j] for j in range(n)] for i in range(n)]
        assert _inertia(rows) == sympy_inertia(rows), rows


def test_circle_polynomial_pins_and_identity():
    # trefoil: P = t^2 - t + 1 gives E(s) = 1 - 3s^2, root s = tan(pi/6)
    assert _circle_polynomial((1, -1, 1)) == (1, -3)
    assert _circle_polynomial((5,)) == (5,)
    with pytest.raises(ArithmeticError):
        _circle_polynomial((1, 2))
    rng = random.Random(3)
    for _ in range(20):
        half = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        p = tuple(half + half[-2::-1])
        f = _circle_polynomial(p)
        for s in (1, 2, 3):
            # P(t)(1 - is)^d = sum_k p_k (1 + is)^k (1 - is)^(d - k), in exact
            # Gaussian integers (small enough for complex floats)
            d = len(p) - 1
            lhs = sum(c * (1 + 1j * s) ** k * (1 - 1j * s) ** (d - k) for k, c in enumerate(p))
            assert lhs == sum(c * s ** (2 * m) for m, c in enumerate(f))


def test_sturm_chain_counts_roots():
    # (x - 1)(x - 2)(x - 3) on (0, 5/2]: two roots, x = 1 and x = 2
    chain = _polyops.sturm_chain((-6, 11, -6, 1))

    def changes(u, v):
        signs = [s for s in (_polyops.sign_at(g, u, v) for g in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    assert changes(0, 1) - changes(5, 2) == 2
    assert changes(0, 1) - changes(1, 0) == 3


def slope_point(s: float) -> complex:
    """The unit-circle point with slope tan(theta/2) = s."""
    return cmath.exp(2j * math.atan(s))


@pytest.mark.parametrize("side", [1, -1])
def test_window_pins_at_a_root(side):
    root = 1 / math.sqrt(3)  # the trefoil's root, theta = pi/3
    form = mk_matrix(TREFOIL)
    for fn, owner in ((levine_tristram_signature, TREFOIL), (mk_signature, form)):
        near = slope_point(root * (1 + side * 2.0 ** -42))
        with pytest.raises(IndeterminateSignatureError):
            fn(owner, near)
        with pytest.raises(IndeterminateSignatureError):
            fn(owner, near.conjugate())
        far = slope_point(root * (1 + side * 2.0 ** -30))
        assert fn(owner, far) == fn(owner, far.conjugate()) == (0 if side < 0 else -2)


def test_window_is_relative_to_the_slope():
    # the cinquefoil's roots e^(i pi k/5) sit at slopes tan(pi k/10)
    data = builtin("cinquefoil").data()
    for k in (1, 3):
        root = math.tan(math.pi * k / 10)
        with pytest.raises(IndeterminateSignatureError):
            levine_tristram_signature(data, slope_point(root * (1 + 2.0 ** -42)))
        levine_tristram_signature(data, slope_point(root * (1 + 2.0 ** -30)))


def test_off_circle_points_near_minus_one_read_as_minus_one():
    data = builtin("trefoil").data()
    for z in (-1, complex(-1 - 1e-10, 0), complex(-1 + 1e-10, 1e-20)):
        assert levine_tristram_signature(data, z) == -2


@pytest.mark.parametrize("genus", range(1, 5))
def test_conjugate_points_have_equal_signatures(genus):
    rng = random.Random(40 + genus)
    for seed in range(4):
        data = random_seifert(genus, 3, seed)
        form = mk_matrix(data)
        for _ in range(10):
            z = cmath.exp(1j * rng.uniform(0.01, math.pi))
            for fn, owner in ((levine_tristram_signature, data), (mk_signature, form)):
                assert (signature_or_none(fn, owner, z)
                        == signature_or_none(fn, owner, z.conjugate()))


@pytest.mark.parametrize("genus", range(1, 5))
def test_values_are_constant_on_arcs_and_jump_only_at_roots(genus):
    np = pytest.importorskip("numpy")
    rng = random.Random(60 + genus)
    for seed in range(4):
        data = random_seifert(genus, 3, 10 * genus + seed)
        a = data.matrix.entries
        # inertia at a rational slope, with no step function in between
        for _ in range(10):
            s = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            z = complex(1 - s * s, 2 * s) / float(1 + s * s)
            pos, neg, zero = _inertia(_seifert_form(a, s.numerator, s.denominator))
            expected = None if zero else (pos - neg) // 2
            assert signature_or_none(levine_tristram_signature, data, z) in (None, expected)
        # every change along a sweep crosses an Alexander root on the circle
        delta = data.presentation.det()
        roots = [r for r in np.roots(delta.coeffs[::-1]) if abs(abs(r) - 1) < 1e-6]
        angles = sorted(abs(cmath.phase(r)) for r in roots)
        profile = [(t, s) for t, s in signature_profile(data, 60) if s is not None]
        for (t0, s0), (t1, s1) in zip(profile, profile[1:]):
            if s0 != s1:
                assert any(t0 < angle < t1 for angle in angles), (seed, t0, t1)
