"""Laurent matrix-vector products by Kronecker substitution against schoolbook.

Matrix.mul_vec, Matrix * Matrix over Z[t,t^-1] and pairing._sesquilinear
all run through matrix._kronecker_apply.  The reference below multiplies
Laurent polynomials term by term and is kept only here.
"""

import random

import pytest

from blanchfield.catalog import builtin, random_seifert
from blanchfield.laurent import LaurentPoly, T
from blanchfield.matrix import LAURENT, ZZ, Matrix, _kronecker_apply
from blanchfield.pairing import _sesquilinear, basis_vector, from_fibred, from_seifert

ZERO = LaurentPoly.zero()


def schoolbook_mul_vec(m, v):
    out = []
    for row in m.entries:
        total = ZERO
        for x, y in zip(row, v):
            total = total + x * y
        out.append(total)
    return tuple(out)


def schoolbook_form(m, v, w):
    """v^T m conj(w), one Laurent product per entry."""
    total = ZERO
    for vi, row in zip(v, m.entries):
        for nij, wj in zip(row, w):
            total = total + vi * nij * wj.conjugate()
    return total


def schoolbook_matmul(a, b):
    return [[sum((a[i, k] * b[k, j] for k in range(a.cols)), ZERO)
             for j in range(b.cols)] for i in range(a.rows)]


def _poly(rng, bound, spread=3):
    if rng.random() < 0.2:
        return ZERO
    return LaurentPoly(rng.randint(-spread, spread),
                       [rng.randint(-bound, bound) for _ in range(rng.randint(1, 4))])


def _matrix(rng, rows, cols, bound):
    return Matrix(LAURENT, [[_poly(rng, bound) for _ in range(cols)] for _ in range(rows)],
                  cols=cols)


def _vector(rng, n, bound):
    kind = rng.randrange(4)
    if kind == 0:
        return tuple(ZERO for _ in range(n))
    if kind == 1 and n:
        # a unit multiple of a basis vector
        i = rng.randrange(n)
        unit = LaurentPoly.t_power(rng.randint(-4, 4), rng.choice((1, -1)))
        return tuple(unit if j == i else ZERO for j in range(n))
    return tuple(_poly(rng, bound) for _ in range(n))


@pytest.mark.parametrize("bound", [1, 7, 10 ** 9, 10 ** 30])
def test_products_match_schoolbook(bound):
    rng = random.Random(bound)
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _matrix(rng, rows, cols, bound)
        w = _vector(rng, cols, bound)
        assert m.mul_vec(w) == schoolbook_mul_vec(m, w)
        if rows == cols:
            v = _vector(rng, rows, bound)
            assert _sesquilinear(m, v, w) == schoolbook_form(m, v, w)
        other = _matrix(rng, cols, rng.randint(0, 4), bound)
        product = m * other
        assert (product.rows, product.cols) == (rows, other.cols)
        assert [list(r) for r in product.entries] == schoolbook_matmul(m, other)


def test_empty_shapes():
    empty = Matrix(LAURENT, (), cols=0)
    assert empty.mul_vec(()) == ()
    assert _sesquilinear(empty, (), ()) == ZERO
    assert empty * empty == empty
    wide = Matrix(LAURENT, (), cols=3)
    tall = Matrix(LAURENT, [[], []])
    assert wide.mul_vec((T, 1, 2)) == ()
    assert tall.mul_vec(()) == (ZERO, ZERO)
    assert tall * wide == Matrix(LAURENT, [[ZERO] * 3] * 2)
    assert (wide * _matrix(random.Random(1), 3, 2, 5)).rows == 0
    assert (tall * Matrix(LAURENT, (), cols=0)).entries == ((), ())


def test_int_entries_are_constants():
    m = _matrix(random.Random(2), 3, 3, 5)
    assert m.mul_vec((1, 0, -2)) == m.mul_vec((LaurentPoly.one(), ZERO, LaurentPoly.const(-2)))
    ints = Matrix.from_int_rows(ZZ, [[1, 0], [2, -3], [0, 4]])
    assert m * ints == m * ints.to_ring(LAURENT)


def test_pairing_values_match_schoolbook():
    rng = random.Random(5)
    pairings = [from_seifert(builtin(name).data())
                for name in ("trefoil", "figure-eight", "cinquefoil")]
    pairings += [from_fibred(builtin("trefoil-fibred").data())]
    pairings += [from_seifert(random_seifert(g, 25, g)) for g in (2, 4, 6)]
    for pairing in pairings:
        n, numer = pairing.size, pairing.form[0]
        vectors = [basis_vector(n, i) for i in range(n)]
        vectors += [_vector(rng, n, 5) for _ in range(6)]
        for v in vectors:
            for w in vectors:
                assert _sesquilinear(numer, v, w) == schoolbook_form(numer, v, w)


def _one_entry(rng, n, entry):
    i = rng.randrange(n)
    return tuple(entry if j == i else ZERO for j in range(n))


def test_generator_pairs_match_schoolbook():
    # v and w with one nonzero entry each take the kernel's Laurent branch:
    # units +-t^k, monomials c t^k (some with negative valuations) and
    # multi-term entries, against matrices with zero, monomial and
    # multi-term entries
    rng = random.Random(17)
    entries = [LaurentPoly.t_power(k, s) for k in (-3, 0, 2) for s in (1, -1)]
    entries += [LaurentPoly.t_power(-5, 7), LaurentPoly.t_power(4, -10 ** 20),
                LaurentPoly(-2, (3, 0, -1)), LaurentPoly(1, (10 ** 15, 2, -5))]
    for bound in (1, 10 ** 9):
        for _ in range(20):
            n = rng.randint(1, 6)
            m = _matrix(rng, n, n, bound)
            for a in entries:
                for b in entries:
                    v, w = _one_entry(rng, n, a), _one_entry(rng, n, b)
                    assert _sesquilinear(m, v, w) == schoolbook_form(m, v, w)
            assert "_packed" not in vars(m)  # no generator pair packs a row
            zero = (ZERO,) * n
            assert _sesquilinear(m, zero, w) == _sesquilinear(m, v, zero) == ZERO


def _monomials(total, vals):
    """Monomials t^val with positive coefficients summing to total, one per
    val (zeros when total is too small to share out)."""
    coeffs = [1] * (len(vals) - 1) + [total - len(vals) + 1]
    if total < len(vals):
        coeffs = [0] * (len(vals) - 1) + [total]
    return [LaurentPoly.t_power(k, c) for k, c in zip(vals, coeffs)]


# 2^bits - 1 as (sum of v's coefficients) * c * (sum of w's coefficients)
SPLITS = {31: (1, 2 ** 31 - 1, 1),
          32: (15, 4369, 65537),
          63: (49, 73 * 127 * 337, 92737 * 649657),
          64: (15 * 17, 257 * 641 * 65537, 6700417)}


def _extremal_form(bits, sign):
    """(m, v, w) with every product landing on one power of t, so v^T m conj(w)
    is one coefficient equal to sign * (2^bits - 1), the kernel's bound
    sum |v_i| * max |m_ij| * sum |w_j| itself."""
    a, c, b = SPLITS[bits]
    assert a * c * b == 2 ** bits - 1
    v = _monomials(a, (-2, 3, 0))
    w = _monomials(b, (1, -4, 6))
    # entry (i, j) is c t^(e_ij) with val(v_i) + e_ij - val(w_j) = 7
    m = Matrix(LAURENT, [[LaurentPoly.t_power(7 - vi.val + wj.val, sign * c) for wj in w]
                         for vi in v])
    return m, v, w


def _extremal_mul_vec(bits, sign):
    """(m, w) with every entry of m w one coefficient sign * (2^bits - 1),
    the bound max |m_ij| * sum |w_j|."""
    a, c, b = SPLITS[bits]
    w = _monomials(a * b, (-3, 2))
    m = Matrix(LAURENT, [[LaurentPoly.t_power(k - wj.val, sign * c) for wj in w]
                         for k in (-5, 0, 4)])
    return m, w


@pytest.mark.parametrize("bits", [31, 32, 63, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_extremal_values_reach_the_width_bound(bits, sign):
    # the width is the bound's bit length plus one, rounded up to a multiple
    # of 32: 31 and 63 bits fill a width exactly, 32 and 64 bits need the
    # next one, so a width one bit smaller, before or after rounding, loses
    # the top coefficient here
    m, v, w = _extremal_form(bits, sign)
    value = _sesquilinear(m, v, w)
    assert value == schoolbook_form(m, v, w) == LaurentPoly.t_power(7, sign * (2 ** bits - 1))
    m, w = _extremal_mul_vec(bits, sign)
    top = sign * (2 ** bits - 1)
    assert m.mul_vec(w) == schoolbook_mul_vec(m, w) == tuple(
        LaurentPoly.t_power(k, top) for k in (-5, 0, 4))
    columns = Matrix(LAURENT, [[wj, -wj] for wj in w])
    assert (m * columns).entries == tuple(
        (LaurentPoly.t_power(k, top), LaurentPoly.t_power(k, -top)) for k in (-5, 0, 4))


def test_rows_are_packed_lazily_once_per_width():
    m = _matrix(random.Random(9), 5, 5, 3)
    small = tuple(LaurentPoly.const(1) for _ in range(5))
    large = tuple(LaurentPoly(-1, (10 ** 12, 1)) for _ in range(5))
    e1, e3 = basis_vector(5, 1), basis_vector(5, 3)
    for v, w in ((e1, small), (e1, large), (e3, small), (e1, small), (e3, large)):
        assert _sesquilinear(m, v, w) == schoolbook_form(m, v, w)
    memo = vars(m)["_packed"]
    # only the rows in v's support were read, each packed once per width
    widths = {key[1] for key in memo if isinstance(key, tuple)}
    assert len(widths) == 2
    assert sorted(key for key in memo if isinstance(key, tuple)) == sorted(
        (i, b) for i in (1, 3) for b in widths)
    assert sorted(key for key in memo if isinstance(key, int)) == [1, 3]
    # a product with the whole matrix reads every row and reuses the widths
    assert m.mul_vec(small) == schoolbook_mul_vec(m, small)
    assert {key[1] for key in memo if isinstance(key, tuple)} == widths
    assert _kronecker_apply(m, small) == m.mul_vec(small)
