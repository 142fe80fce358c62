import random

import pytest

from blanchfield.catalog import builtin, random_seifert
from blanchfield.laurent import LaurentPoly, T
from blanchfield.matrix import LAURENT, ZZ, Matrix
from blanchfield.mkform import (MKAssemblyError, MKForm, mk_matrix, standard_symplectic,
                               symplectic_normalize)
from blanchfield.pairing import SeifertData, basis_vector, from_seifert
from blanchfield.verify import random_vector

TREFOIL = SeifertData(Matrix.from_int_rows(ZZ, [[-1, 1], [0, -1]]))


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for j in range(n):
            m[a][j] += c * m[b][j]
        if rng.random() < 0.3:
            m[a] = [-x for x in m[a]]
    return Matrix.from_int_rows(ZZ, m)


def test_standard_form_normalizes_to_identity_congruence():
    std = standard_symplectic(2)
    p = symplectic_normalize(std)
    assert p * std * p.transpose() == std
    assert p == Matrix.identity(ZZ, 4)


def test_sign_flip_2x2():
    s = Matrix.from_int_rows(ZZ, [[0, -1], [1, 0]])
    p = symplectic_normalize(s)
    assert p * s * p.transpose() == standard_symplectic(1)


def test_symplectic_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        symplectic_normalize(Matrix.from_int_rows(ZZ, [[0]]))
    with pytest.raises(ValueError):
        symplectic_normalize(Matrix.from_int_rows(ZZ, [[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        symplectic_normalize(Matrix.from_int_rows(ZZ, [[0, 2], [-2, 0]]))


def test_symplectic_round_trip_random():
    rng = random.Random(101)
    for _ in range(50):
        k = rng.randint(1, 3)
        q = random_unimodular(rng, 2 * k)
        s = q.transpose() * standard_symplectic(k) * q
        p = symplectic_normalize(s)
        assert p * s * p.transpose() == standard_symplectic(k)
        assert p.det() in (1, -1)


def test_mk_trefoil_matrix():
    form = mk_matrix(TREFOIL)
    expected = Matrix(LAURENT, [
        [LaurentPoly.const(-1), LaurentPoly(1, (-1,))],
        [LaurentPoly(-1, (-1,)), LaurentPoly.parse("t - 2 + t^-1")],
    ])
    assert form.mk == expected
    assert form.congruence == Matrix.identity(ZZ, 2)


def test_mk_trefoil_determinant_is_alexander_up_to_unit():
    form = mk_matrix(TREFOIL)
    assert form.determinant() == LaurentPoly.parse("-t + 1 - t^-1")
    pres_det = from_seifert(TREFOIL).presentation.det()
    assert form.determinant().is_unit_multiple_of(pres_det)


def test_mk_hermitian():
    form = mk_matrix(TREFOIL)
    assert form.mk.conjugate_transpose() == form.mk


def test_mk_empty():
    form = mk_matrix(SeifertData(Matrix(ZZ, (), cols=0)))
    assert form.size == 0
    assert form.determinant() == LaurentPoly.one()


def test_mk_pairing_trefoil_value_and_hermitian():
    form = mk_matrix(TREFOIL)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    assert str(form.value(e1, e1)) == "(-t)/(t^2 - t + 1)"
    assert form.value(e1, e2) == form.value(e2, e1).conjugate()


def test_mk_pairing_zero_vector():
    form = mk_matrix(TREFOIL)
    zero = (LaurentPoly.zero(), LaurentPoly.zero())
    assert form.value(zero, basis_vector(2, 0)).is_zero()


def test_mk_pairing_well_defined_under_presentation_shift():
    form = mk_matrix(TREFOIL)
    rng = random.Random(7)
    for _ in range(10):
        v, w, x = (random_vector(rng, 2) for _ in range(3))
        base = form.value(v, w)
        shifted = tuple(a + s for a, s in zip(v, form.mk.mul_vec(x)))
        assert form.value(shifted, w) == base


def test_mk_random_entries_hermitian_det():
    rng = random.Random(55)
    for seed in range(15):
        g = rng.randint(1, 3)
        data = random_seifert(g, 3, seed)
        form = mk_matrix(data)
        assert form.mk.conjugate_transpose() == form.mk
        pres_det = from_seifert(data).presentation.det()
        assert form.determinant() == form.mk.det()
        assert form.determinant().is_unit_multiple_of(pres_det)
        # congruence really standardizes the skew part
        skew = data.matrix - data.matrix.transpose()
        assert (form.congruence * skew * form.congruence.transpose()
                == standard_symplectic(g))


def _mk_reference(data):
    # the paper's two-term diagonal-scaled sum
    #   diag(t/(t-1), 1) A diag(1, 1-t) + diag(1, 1-t^-1) A^T diag(-1/(t-1), 1),
    # scaled by t - 1 so that it lies over Z[t,t^-1]; exact_div then
    # requires every entry of the sum itself to be Laurent
    congruence = symplectic_normalize(data.matrix - data.matrix.transpose())
    a = (congruence * data.matrix * congruence.transpose()).to_ring(LAURENT)
    k = data.size // 2

    def diag(top, bottom):
        return Matrix(LAURENT, [[(top if i < k else bottom) if i == j else LaurentPoly.zero()
                                 for j in range(2 * k)] for i in range(2 * k)],
                      cols=2 * k)

    one = LaurentPoly.one()
    scaled = (diag(T, T - 1) * a * diag(one, 1 - T)
              + diag(one, 1 - T.conjugate()) * a.transpose() * diag(-one, T - 1))
    return scaled.map_entries(lambda e: e.exact_div(T - 1))


def test_mk_block_formulas_match_qt_sum():
    cases = [builtin(name).data() for name in ("trefoil", "figure-eight", "cinquefoil")]
    cases += [random_seifert(seed % 5, 1 + seed % 3, seed) for seed in range(100)]
    for data in cases:
        assert mk_matrix(data).mk == _mk_reference(data), data


def test_mk_presented_pairing_built_once():
    form = mk_matrix(random_seifert(2, 3, 4))
    e = basis_vector(form.size, 0)
    form.value(e, e)
    # the first value keeps the one form (N, d) on the MKForm
    numer, denom = vars(form)["form"]
    assert form.form[0] is numer
    # the numerator is -adj(M_K(t^-1)), taken as the conjugate of -adj(M_K)
    adj, det = form.mk.conjugate().adjugate()
    assert numer == -adj and denom == det
    # membership reads the elimination cached on the form
    assert form.adjugate == form.mk.adjugate()


def test_mk_form_rejects_an_integer_matrix():
    # M_K lives over Z[t,t^-1]; a symmetric integer matrix is refused at
    # construction, not when its pairing is first built
    eye = Matrix.identity(ZZ, 2)
    with pytest.raises(ValueError, match=r"Z\[t,t\^-1\]"):
        MKForm(Matrix.from_int_rows(ZZ, [[2, 1], [1, 2]]), eye)
    with pytest.raises(ValueError, match=r"Z\[t,t\^-1\]"):
        MKForm(Matrix(ZZ, (), cols=0), Matrix(ZZ, (), cols=0))


def test_mk_form_rejects_singular_and_non_hermitian_matrices():
    eye = Matrix.identity(ZZ, 1)
    zero = LaurentPoly.zero()
    with pytest.raises(MKAssemblyError, match="assembled M_K is singular"):
        MKForm(Matrix(LAURENT, [[zero]]), eye)
    with pytest.raises(MKAssemblyError, match="not hermitian"):
        MKForm(Matrix(LAURENT, [[T]]), eye)
    # the checks run in order: ring, then hermitian, then nonsingular
    with pytest.raises(MKAssemblyError, match="not hermitian"):
        MKForm(Matrix(LAURENT, [[zero, T], [zero, zero]]), Matrix.identity(ZZ, 2))
    with pytest.raises(ValueError, match=r"Z\[t,t\^-1\]"):
        MKForm(Matrix.from_int_rows(ZZ, [[0]]), eye)


def _isometry_checks(data, top, bottom):
    """(values agree, presentation killed) for X = diag(top id_k, bottom id_k) C,
    with C the symplectic congruence of M_K."""
    form = mk_matrix(data)
    n, k = data.size, data.size // 2
    scale = Matrix(LAURENT, [[(top if i < k else bottom) if i == j else LaurentPoly.zero()
                              for j in range(n)] for i in range(n)], cols=n)
    x = scale * form.congruence.to_ring(LAURENT)
    seifert, e = from_seifert(data), [basis_vector(n, i) for i in range(n)]
    agree = all(seifert.value(e[i], e[j]) == form.value(x.column(i), x.column(j))
                for i in range(n) for j in range(n))
    image = x * data.presentation
    killed = all(form.is_zero_element(image.column(j)) for j in range(n))
    return agree, killed


ISOMETRY_CORPUS = [(g, s) for g in range(1, 5) for s in range(10)]


def test_mk_isometry_carries_the_seifert_pairing():
    # e_i -> X e_i maps Lambda^2g / (tA - A^T) onto the M_K module and
    # carries the Seifert pairing to the M_K pairing
    for g, s in ISOMETRY_CORPUS:
        checks = _isometry_checks(random_seifert(g, 3, s), LaurentPoly.one(), 1 - T.conjugate())
        assert checks == (True, True), (g, s)


@pytest.mark.parametrize("top, bottom", [
    (LaurentPoly.one(), LaurentPoly.one()),
    (LaurentPoly.one(), 1 - T),
    (1 - T.conjugate(), LaurentPoly.one())], ids=["C", "1-t", "top-block"])
def test_mk_isometry_negative_controls(top, bottom):
    # no factor, 1 - t in place of 1 - t^-1, or the factor on the top
    # block: each check passes on only 1 of the 40
    results = [_isometry_checks(random_seifert(g, 3, s), top, bottom)
               for g, s in ISOMETRY_CORPUS]
    assert sum(agree for agree, _ in results) == 1
    assert sum(killed for _, killed in results) == 1
