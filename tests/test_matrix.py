import random

import pytest

from blanchfield.laurent import LaurentPoly, T
from blanchfield.matrix import LAURENT, QT, ZZ, Matrix, SingularMatrixError
from blanchfield.ratfunc import RationalFunction as RF


def laurent_matrix(rows):
    return Matrix(LAURENT, [[e if isinstance(e, LaurentPoly) else LaurentPoly.const(e)
                             for e in row] for row in rows])


def test_det_empty_matrix_is_one():
    assert Matrix(ZZ, (), cols=0).det() == 1
    assert Matrix(LAURENT, (), cols=0).det() == LaurentPoly.one()


def test_det_figure_eight_presentation():
    m = laurent_matrix([[T - 1, T], [-1, 1 - T]])
    assert m.det() == LaurentPoly.parse("-t^2 + 3t - 1")


def test_det_trefoil_pairing_base():
    m = laurent_matrix([[T - 1, 1], [-T, T - 1]])
    assert m.det() == LaurentPoly.parse("t^2 - t + 1")


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        Matrix(ZZ, [[1, 2]]).det()


def _assert_adjugate_identity(m):
    adj, det = m.adjugate()
    eye = Matrix.identity(m.ring, m.rows)
    assert m * adj == adj * m == eye * det
    return adj, det


def test_inverse_identity():
    eye = Matrix.identity(QT, 3)
    assert _assert_adjugate_identity(eye) == (eye, RF.one())


def test_inverse_trefoil_base():
    # the Q(t) inverse is adj/det, computed over Z[t,t^-1]
    m = laurent_matrix([[T - 1, 1], [-T, T - 1]])
    adj, det = _assert_adjugate_identity(m)
    delta = LaurentPoly.parse("t^2 - t + 1")
    assert det == delta
    assert adj == laurent_matrix([[T - 1, -1], [T, T - 1]])
    inv = adj.map_entries(lambda e: RF(e, delta), QT)
    assert m.to_ring(QT) * inv == Matrix.identity(QT, 2)


def test_inverse_of_singular_rejected():
    m = Matrix(QT, [[RF(1), RF(1)], [RF(1), RF(1)]])
    with pytest.raises(SingularMatrixError):
        m.adjugate()


def _random_laurent_matrix(rng, n):
    return Matrix(LAURENT, [[LaurentPoly(rng.randint(-1, 1),
                                         [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))])
                             for _ in range(n)] for _ in range(n)])


def test_det_is_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = _random_laurent_matrix(rng, n)
        b = _random_laurent_matrix(rng, n)
        assert (a * b).det() == a.det() * b.det()


def test_det_transpose_invariant():
    rng = random.Random(12)
    for _ in range(20):
        m = _random_laurent_matrix(rng, rng.randint(1, 3))
        assert m.det() == m.transpose().det()


def test_random_inverse_round_trip():
    rng = random.Random(13)
    checked = 0
    while checked < 10:
        m = _random_laurent_matrix(rng, 3)
        if not m.det():
            continue
        for ring_m in (m, m.to_ring(QT)):
            _assert_adjugate_identity(ring_m)
        checked += 1


def test_bareiss_matches_field_det():
    rng = random.Random(15)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = _random_laurent_matrix(rng, n)
        assert RF(m.det()) == m.to_ring(QT).det()


def _to_sympy(p, t):
    return sum(c * t ** (p.val + i) for i, c in enumerate(p.coeffs))


def test_adjugate_matches_sympy_oracle():
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t")
    rng = random.Random(16)
    checked = swapped = 0
    while checked < 30:
        n = rng.randint(1, 4)
        m = _random_laurent_matrix(rng, n)
        if n > 1 and checked % 3 == 0:
            # a zero leading pivot forces a row swap
            rows = [list(r) for r in m.entries]
            rows[0][0] = LaurentPoly.zero()
            m = Matrix(LAURENT, rows)
            swapped += 1
        try:
            adj, det = m.adjugate()
        except SingularMatrixError:
            assert m.det().is_zero()
            continue
        assert adj * m == m * adj == det * Matrix.identity(LAURENT, n)
        oracle = sp.Matrix(n, n, lambda i, j: _to_sympy(m[i, j], t))
        assert sp.expand(_to_sympy(det, t) - oracle.det()) == 0
        ours = sp.Matrix(n, n, lambda i, j: _to_sympy(adj[i, j], t))
        assert sp.expand(ours - oracle.adjugate()) == sp.zeros(n, n)
        checked += 1
    assert swapped >= 5


def test_adjugate_row_swap_sign():
    swap = Matrix.from_int_rows(ZZ, [[0, 1], [1, 0]])
    assert swap.adjugate() == (Matrix.from_int_rows(ZZ, [[0, -1], [-1, 0]]), -1)


def test_adjugate_empty_matrix():
    adj, det = Matrix(LAURENT, (), cols=0).adjugate()
    assert adj == Matrix(LAURENT, (), cols=0)
    assert det == LaurentPoly.one()


def test_adjugate_of_singular_rejected():
    m = laurent_matrix([[1 + T, 2], [T + T * T, 2 * T]])
    with pytest.raises(SingularMatrixError):
        m.adjugate()
    with pytest.raises(SingularMatrixError):
        Matrix.from_int_rows(ZZ, [[1, 2], [2, 4]]).adjugate()


def test_inverse_over_the_rings():
    adj, det = _assert_adjugate_identity(Matrix.from_int_rows(ZZ, [[2, 1], [1, 1]]))
    assert (adj, det) == (Matrix.from_int_rows(ZZ, [[1, -1], [-1, 2]]), 1)
    _assert_adjugate_identity(Matrix.from_int_rows(ZZ, [[3, 1, 0], [1, 2, 5], [0, 4, 1]]))
    _assert_adjugate_identity(laurent_matrix([[T, 1], [0, 1]]))
    _assert_adjugate_identity(Matrix(QT, [[RF(T, T + 1), RF(2)], [RF(1), RF(T - 1)]]))
