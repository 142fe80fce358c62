import gc
import itertools
import math
import random
import weakref

import pytest

from blanchfield.catalog import builtin, builtin_catalog, random_seifert
from blanchfield.laurent import LaurentPoly, T
from blanchfield.matrix import LAURENT, ZZ, Matrix, _elimination_width
from blanchfield.mkform import MKForm, mk_matrix
from blanchfield.pairing import (DualSurfaceData, FibredData, InvariantViolation,
                                 PresentedPairing, SeifertData, _one_minus_t, _PresentedData,
                                 as_laurent_vector, basis_vector, from_dual_surface,
                                 from_fibred, from_seifert, kearton_value, stabilize)
from blanchfield.qmod import canonical_class
from blanchfield.qmod import RationalFunction as RF
from blanchfield.verify import random_vector

TREFOIL = SeifertData(Matrix.from_int_rows(ZZ, [[-1, 1], [0, -1]]))
FIG8 = SeifertData(Matrix.from_int_rows(ZZ, [[1, 1], [0, -1]]))
UNKNOT = SeifertData(Matrix(ZZ, (), cols=0))
TREFOIL_FIBRED = FibredData(Matrix.from_int_rows(ZZ, [[1, -1], [1, 0]]),
                            Matrix.from_int_rows(ZZ, [[0, 1], [-1, 0]]))
DELTA = LaurentPoly.parse("t^2 - t + 1")


def test_seifert_data_rejects_bad_skew():
    with pytest.raises(InvariantViolation):
        SeifertData(Matrix.from_int_rows(ZZ, [[0, 0], [0, 0]]))
    with pytest.raises(InvariantViolation):
        SeifertData(Matrix.from_int_rows(ZZ, [[1]]))


def test_fibred_data_preconditions_reported_individually():
    eye = Matrix.identity(ZZ, 2)
    j = Matrix.from_int_rows(ZZ, [[0, 1], [-1, 0]])
    with pytest.raises(InvariantViolation, match="invertible"):
        FibredData(2 * eye, j)
    with pytest.raises(InvariantViolation, match="skew"):
        FibredData(eye, Matrix.from_int_rows(ZZ, [[0, 1], [1, 0]]))
    with pytest.raises(InvariantViolation, match="P\\^T J P"):
        # a swap has determinant -1 and reverses the symplectic form
        FibredData(Matrix.from_int_rows(ZZ, [[0, 1], [1, 0]]), j)


EMPTY = Matrix(ZZ, (), cols=0)


@pytest.mark.parametrize("data", [e.data() for e in builtin_catalog()]
                         + [SeifertData(EMPTY), FibredData(EMPTY, EMPTY)],
                         ids=[e.name for e in builtin_catalog()] + ["seifert-0x0", "fibred-0x0"])
def test_every_kind_reads_size_and_determinant_off_its_presentation(data):
    assert data.size == data.presentation.rows
    assert data.determinant() == data.adjugate[1]


def test_size_and_determinant_are_defined_once():
    for cls in (SeifertData, FibredData, DualSurfaceData, MKForm):
        assert "size" not in vars(cls)
    for cls in (SeifertData, FibredData, DualSurfaceData):
        assert "determinant" not in vars(cls)
    assert {"size", "determinant"} <= set(vars(_PresentedData))


def test_mk_determinant_is_the_constructor_det_without_elimination():
    form = mk_matrix(builtin("cinquefoil").data())
    assert form.determinant() == form.mk.det()
    assert "adjugate" not in vars(form)
    assert form.size == form.presentation.rows == 4
    assert form.determinant() == form.adjugate[1]


def test_from_seifert_trefoil_matrices():
    b = from_seifert(TREFOIL)
    assert b.presentation == Matrix(LAURENT, [[1 - T, T],
                                              [LaurentPoly.const(-1), 1 - T]])
    # (t-1)(A - tA^T)^{-1} = (1-t) adj(P)^T / det P
    numer, denom = b.form
    assert numer == Matrix(LAURENT, [[(T - 1) * (T - 1), 1 - T],
                                     [T * (T - 1), (T - 1) * (T - 1)]])
    assert denom == DELTA


@pytest.mark.parametrize("data", [TREFOIL, random_seifert(3, 3, 9)], ids=["trefoil", "g3"])
def test_pairing_matrix_reads_form(data):
    b = from_seifert(data)
    (numer, denom), pm = b.form, b.pairing_matrix
    assert (pm.rows, pm.cols) == (numer.rows, numer.cols) == (data.size, data.size)
    for i in range(data.size):
        for j in range(data.size):
            assert pm[i, j] == RF(numer[i, j], denom)


def test_from_seifert_unknot_trivial():
    b = from_seifert(UNKNOT)
    assert b.size == 0
    assert b.value((), ()).is_zero()
    assert b.is_zero_element(())


def test_figure_eight_presentation_determinant():
    b = from_seifert(FIG8)
    assert b.presentation.det() == LaurentPoly.parse("-t^2 + 3t - 1")


def test_pairing_value_trefoil_generator():
    b = from_seifert(TREFOIL)
    e1 = basis_vector(2, 0)
    assert b.value(e1, e1) == canonical_class(
        RF(LaurentPoly.parse("t^2 - 2t + 1"), DELTA))
    assert str(b.value(e1, e1)) == "(-t)/(t^2 - t + 1)"


def test_pairing_value_zero_vector():
    b = from_seifert(TREFOIL)
    zero = (LaurentPoly.zero(), LaurentPoly.zero())
    assert b.value(zero, basis_vector(2, 1)).is_zero()


def test_pairing_value_well_defined_on_trefoil():
    b = from_seifert(TREFOIL)
    rng = random.Random(3)
    e1 = basis_vector(2, 0)
    w = basis_vector(2, 1)
    base = b.value(e1, w)
    for _ in range(10):
        x = random_vector(rng, 2)
        shifted = tuple(a + s for a, s in zip(w, b.presentation.mul_vec(x)))
        assert b.value(e1, shifted) == base


def test_pairing_value_dimension_mismatch():
    b = from_seifert(TREFOIL)
    with pytest.raises(ValueError):
        b.value((LaurentPoly.one(),), basis_vector(2, 0))


def test_element_equal():
    b = from_seifert(TREFOIL)
    e1 = basis_vector(2, 0)
    assert b.is_zero_element([x - y for x, y in zip(e1, e1)])
    image = b.presentation.mul_vec(as_laurent_vector((1, 0)))
    assert b.is_zero_element(image)
    # the module is nontrivial since Delta is not a unit
    assert not b.is_zero_element(e1)


def test_from_fibred_trefoil():
    b = from_fibred(TREFOIL_FIBRED)
    assert b.presentation.det() == DELTA
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    assert b.value(e1, e2) == b.value(e2, e1).conjugate()


def test_fibred_trivial_and_rejected():
    empty = FibredData(Matrix(ZZ, (), cols=0), Matrix(ZZ, (), cols=0))
    b = from_fibred(empty)
    assert b.size == 0
    with pytest.raises(InvariantViolation):
        FibredData(Matrix.from_int_rows(ZZ, [[2, 0], [0, 2]]),
                   Matrix.from_int_rows(ZZ, [[0, 1], [-1, 0]]))


def test_dual_surface_zero_vector():
    a = TREFOIL.matrix
    dual = from_dual_surface(DualSurfaceData(a, a.transpose(), a - a.transpose()))
    zero = (LaurentPoly.zero(), LaurentPoly.zero())
    assert dual.value(zero, basis_vector(2, 0)).is_zero()


def test_dual_surface_membership_reads_its_presentation():
    # is_zero_element tests v against i+ - t^-1 i-, which kills every one
    # of its own columns; the module is nontrivial, so e1 is not zero
    pairing = from_dual_surface(builtin("trefoil-dual").data())
    n = pairing.size
    assert all(pairing.is_zero_element(pairing.presentation.column(j)) for j in range(n))
    assert not pairing.is_zero_element(basis_vector(n, 0))


def test_dual_surface_seifert_specialization():
    a = TREFOIL.matrix
    dual = from_dual_surface(DualSurfaceData(a, a.transpose(), a - a.transpose()))
    b = from_seifert(TREFOIL)
    al = a.to_ring(LAURENT)
    rng = random.Random(5)
    for _ in range(10):
        v, w = random_vector(rng, 2), random_vector(rng, 2)
        assert dual.value(v, w) == b.value(al.mul_vec(v), al.mul_vec(w))


def test_dual_surface_fibred_specialization():
    dual = from_dual_surface(DualSurfaceData(
        TREFOIL_FIBRED.monodromy, Matrix.identity(ZZ, 2),
        TREFOIL_FIBRED.intersection))
    b = from_fibred(TREFOIL_FIBRED)
    for i in range(2):
        for j in range(2):
            ei, ej = basis_vector(2, i), basis_vector(2, j)
            assert dual.value(ei, ej) == b.value(ei, ej)


def test_dual_surface_rejects_singular_mayer_vietoris():
    zero = Matrix.from_int_rows(ZZ, [[0, 0], [0, 0]])
    j = Matrix.from_int_rows(ZZ, [[0, 1], [-1, 0]])
    with pytest.raises(InvariantViolation, match="nonsingular"):
        DualSurfaceData(zero, zero, j)


def test_kearton_value_linear_and_raw():
    zero = (LaurentPoly.zero(), LaurentPoly.zero())
    assert kearton_value(TREFOIL, zero, basis_vector(2, 0)).is_zero()
    e1 = basis_vector(2, 0)
    # (t-1) times the (1,1) entry of the inverse of [[1-t, t], [-1, 1-t]]
    val = kearton_value(TREFOIL, e1, e1)
    assert val == RF((T - 1) * (1 - T), DELTA)


def test_kearton_formula_not_well_defined():
    # shifting v by (tA - A^T)x changes the raw value by a non-Laurent amount
    pres = from_seifert(TREFOIL).presentation
    x = as_laurent_vector((1, 0))
    diff = kearton_value(TREFOIL, pres.mul_vec(x), basis_vector(2, 0))
    assert not diff.is_laurent()


def test_stabilize_unknot():
    st = stabilize(UNKNOT, (), "upper")
    assert st.size == 2
    det = from_seifert(st).presentation.det()
    assert det.is_unit()


@pytest.mark.parametrize("kind", ["upper", "lower"])
def test_stabilize_preserves_presentation_up_to_unit(kind):
    st = stabilize(TREFOIL, (1, -2), kind)
    det = from_seifert(st).presentation.det()
    assert det.is_unit_multiple_of(DELTA)
    st2 = stabilize(st, (0, 3, 1, 0), kind)
    assert from_seifert(st2).presentation.det().is_unit_multiple_of(DELTA)


def test_random_seifert_pairings_nonsingular():
    for seed in range(5):
        data = random_seifert(2, 3, seed)
        b = from_seifert(data)
        assert b.presentation.det()
        assert b.value(basis_vector(4, 0), basis_vector(4, 0)) is not None


def test_pairing_matrix_inverts_seifert_base():
    # (t-1)(A - tA^T)^{-1} = N/d, so N (A - tA^T) = (t-1) d id exactly
    for genus, seed in [(1, 0), (1, 1), (2, 2), (2, 3), (3, 4)]:
        data = random_seifert(genus, 3, seed)
        a = data.matrix.to_ring(LAURENT)
        numer, denom = from_seifert(data).form
        assert numer * (a - T * a.transpose()) == \
            Matrix.identity(LAURENT, data.size) * ((T - 1) * denom)


def test_element_equal_needs_integral_quotient():
    # 5_2: Delta = 2t - 3 + 2t^-1 is not monic, so the divisibility
    # test meets quotients with non-integral coefficients
    data = SeifertData(Matrix.from_int_rows(ZZ, [[-1, 1], [0, -2]]))
    b = from_seifert(data)
    assert b.presentation.det().is_unit_multiple_of(LaurentPoly.parse("2t^2 - 3t + 2"))
    assert not b.is_zero_element([2, 0])
    image = b.presentation.mul_vec(as_laurent_vector((1, -3)))
    assert b.is_zero_element(image)
    v = as_laurent_vector((T, 2))
    w = [x + y for x, y in zip(v, image)]
    assert b.is_zero_element([x - y for x, y in zip(v, w)])


def test_seifert_and_mk_pairings_carry_the_presentation_adjugate():
    # membership is decided by divisibility, which cannot see a sign or
    # t-power slip in the adjugate handed over at construction
    for genus, seed in [(1, 5), (2, 6), (2, 7), (3, 8)]:
        data = random_seifert(genus, 3, seed)
        for b in (from_seifert(data), PresentedPairing(mk_matrix(data))):
            assert b.data.adjugate == b.presentation.adjugate()


def test_pairing_forms_are_built_once_per_data_object():
    # verify's checks and the Kearton control read the one (N, d) kept on
    # the data; an equal but distinct data object builds its own
    for data, build in [(random_seifert(2, 3, 4), from_seifert),
                        (TREFOIL_FIBRED, from_fibred)]:
        numer, denom = build(data).form
        assert build(data).form[0] is numer and build(data).data is data
        twin = type(data)(*[getattr(data, f) for f in data._fields])
        assert twin == data and build(twin).form[0] is not numer
        assert build(twin).form == (numer, denom)


def test_constructors_refuse_other_data_kinds():
    # each formula belongs to one kind of data: the Seifert formula on
    # tP - id, or the fibred one on tA - A^T, is refused by name rather
    # than answered
    fibred = builtin("trefoil-fibred").data()
    with pytest.raises(TypeError, match="expected SeifertData, got FibredData"):
        from_seifert(fibred)
    with pytest.raises(TypeError, match="expected FibredData, got SeifertData"):
        from_fibred(TREFOIL)
    with pytest.raises(TypeError, match="expected DualSurfaceData, got SeifertData"):
        from_dual_surface(TREFOIL)
    adj, det = fibred.presentation.adjugate()
    assert from_fibred(fibred).form == (
        fibred.intersection.to_ring(LAURENT) * adj.conjugate(), det.conjugate())


def test_data_objects_are_freed_by_reference_counting():
    # a pairing holds its data and the data keeps only its form (N, d), no
    # pairing, so dropping both frees the data without the cyclic collector
    def dropped(data, build):
        e = basis_vector(data.size, 0)
        build(data).value(e, e)
        return weakref.ref(data)

    a = random_seifert(2, 3, 4).matrix
    gc.disable()
    try:
        refs = [dropped(random_seifert(2, 3, 5), from_seifert),
                dropped(FibredData(TREFOIL_FIBRED.monodromy,
                                   TREFOIL_FIBRED.intersection), from_fibred),
                dropped(DualSurfaceData(a, a.transpose(), a - a.transpose()),
                        from_dual_surface),
                dropped(mk_matrix(random_seifert(2, 3, 6)),
                        PresentedPairing)]
        alive = [r() is not None for r in refs]
    finally:
        gc.enable()
    assert alive == [False] * 4


def test_fibred_pairing_from_one_elimination():
    # adj(t^-1 P - id) is taken as the conjugate of adj(tP - id)
    tinv = T.conjugate()
    p = TREFOIL_FIBRED.monodromy
    for _ in range(4):
        b = from_fibred(FibredData(p, TREFOIL_FIBRED.intersection))
        assert b.data.adjugate == b.presentation.adjugate()
        direct, det = (tinv * p.to_ring(LAURENT) - Matrix.identity(LAURENT, 2)).adjugate()
        assert b._numer == TREFOIL_FIBRED.intersection.to_ring(LAURENT) * direct
        assert b._denom == det
        p = p * TREFOIL_FIBRED.monodromy


def _dual_value_reference(data, v, w):
    # the closed form -((i+ - t^-1 i-)^{-1} i+ v)^T J conj(w) as two
    # matrix-vector products against adj(i+ - t^-1 i-) over its det
    iplus = data.iota_plus.to_ring(LAURENT)
    mv = iplus - T.conjugate() * data.iota_minus.to_ring(LAURENT)
    adj, det = mv.adjugate()
    u = adj.mul_vec(iplus.mul_vec(as_laurent_vector(v)))
    jw = data.intersection.to_ring(LAURENT).mul_vec(
        tuple(e.conjugate() for e in as_laurent_vector(w)))
    total = LaurentPoly.zero()
    for ui, ji in zip(u, jw):
        total = total + ui * ji
    return canonical_class(RF(-total, det))


def test_dual_surface_matches_two_product_formula():
    rng = random.Random(13)
    cases = [DualSurfaceData(TREFOIL_FIBRED.monodromy, Matrix.identity(ZZ, 2),
                             TREFOIL_FIBRED.intersection)]
    for genus in (1, 2, 3):
        for seed in range(3):
            a = random_seifert(genus, 3, 10 * genus + seed).matrix
            cases.append(DualSurfaceData(a, a.transpose(), a - a.transpose()))
    for data in cases:
        dual = from_dual_surface(data)
        n = dual.size
        pairs = [(basis_vector(n, i), basis_vector(n, j))
                 for i in range(n) for j in range(n)]
        pairs += [(random_vector(rng, n), random_vector(rng, n)) for _ in range(3)]
        for v, w in pairs:
            assert dual.value(v, w) == _dual_value_reference(data, v, w)


def _laurent_presentation(data):
    # the Laurent-arithmetic construction that the integer-built one replaced
    if isinstance(data, SeifertData):
        a = data.matrix.to_ring(LAURENT)
        return T * a - a.transpose()
    if isinstance(data, FibredData):
        return T * data.monodromy.to_ring(LAURENT) - Matrix.identity(LAURENT, data.size)
    return (data.iota_plus.to_ring(LAURENT)
            - T.conjugate() * data.iota_minus.to_ring(LAURENT))


def _block_diag(*blocks):
    n = sum(b.rows for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            rows[at + i][at:at + b.cols] = row
        at += b.rows
    return Matrix.from_int_rows(ZZ, rows)


def _presentation_cases():
    cases = [entry.data() for entry in builtin_catalog()]
    cases += [random_seifert(genus, bound, seed) for genus in range(7)
              for bound, seed in ((1, genus), (3, 10 + genus), (25, 20 + genus))]
    p, j = TREFOIL_FIBRED.monodromy, TREFOIL_FIBRED.intersection
    cases += [FibredData(p * p, j), FibredData(p * p * p, j),
              FibredData(Matrix(ZZ, (), cols=0), Matrix(ZZ, (), cols=0))]
    # P = diag(P_1, P_1^2) preserves J = diag(J_1, J_1)
    cases.append(FibredData(_block_diag(p, p * p), _block_diag(j, j)))
    cases.append(DualSurfaceData(p, Matrix.identity(ZZ, 2), j))
    for genus in (1, 2, 3):
        a = random_seifert(genus, 3, 30 + genus).matrix
        cases.append(DualSurfaceData(a, a.transpose(), a - a.transpose()))
    return cases + [UNKNOT]


@pytest.mark.parametrize("data", _presentation_cases(), ids=lambda d: type(d).__name__)
def test_integer_built_presentation_matches_laurent_arithmetic(data):
    expected = _laurent_presentation(data)
    assert data.presentation == expected
    assert all(type(c) is int for row in data.presentation.entries
               for e in row for c in e.coeffs)
    assert data.adjugate == expected.adjugate()


@pytest.mark.parametrize("data", _presentation_cases(), ids=lambda d: type(d).__name__)
def test_numerator_is_written_from_coefficients(data):
    # (1 - t) e from the coefficients c_k - c_(k-1) of e, against Laurent
    # arithmetic, on every adjugate; from_seifert reads it as N = (1 - t) adj^T
    adj, det = data.adjugate
    expected = (1 - T) * adj.transpose()
    assert adj.transpose().map_entries(_one_minus_t) == expected
    if isinstance(data, SeifertData):
        assert from_seifert(data).form[0] == expected
        # the classical (t - 1) adj over det, read off N as -N^T
        n = data.size
        for i, j in itertools.product(range(n), repeat=2):
            assert kearton_value(data, basis_vector(n, i), basis_vector(n, j)) == \
                RF((T - 1) * adj[i, j], det)


@pytest.mark.parametrize("data", _presentation_cases(), ids=lambda d: type(d).__name__)
def test_hadamard_width_bounds_the_elimination(data):
    # every adj and det coefficient lies below 2^(B-2) at the Hadamard width
    # B, which is never above the width of the product of row 1-norms
    p = data.presentation
    bits = _elimination_width(p)
    old = math.prod(1 + sum(sum(map(abs, e.coeffs)) for e in row)
                    for row in p.entries).bit_length() + 2
    assert bits <= old
    adj, det = data.adjugate
    for e in [det, *(e for row in adj.entries for e in row)]:
        assert all(abs(c) < 2 ** (bits - 2) for c in e.coeffs)


@pytest.mark.parametrize("data", [TREFOIL, TREFOIL_FIBRED, builtin("trefoil-dual").data()],
                         ids=lambda d: type(d).__name__)
def test_data_objects_are_immutable_records(data):
    twin = type(data)(*[getattr(data, f) for f in data._fields])
    assert twin == data and twin is not data and hash(twin) == hash(data)
    twin.adjugate  # the cached elimination stays out of equality
    assert twin == data and data != FIG8
    for field in data._fields:
        with pytest.raises(AttributeError):
            setattr(data, field, getattr(data, field))


# trefoil, figure-eight and 8 random Seifert matrices with det A = +-1
UNIMODULAR_CORPUS = [TREFOIL, FIG8] + [random_seifert(g, 1, s) for g, s in (
    (1, 1), (1, 2), (2, 1), (2, 20), (2, 21), (2, 25), (3, 19), (3, 32))]


def _fibred_checks(data, x_is_inverse=True, negate_j=False):
    """(values agree, presentation killed) for the fibred data
    P = A^-T A, J = A - A^T of a unimodular Seifert matrix A and the
    coordinate change X = A^-1 (or id)."""
    a, n = data.matrix, data.size
    adj, det = a.adjugate()
    inverse = det * adj
    j = a - a.transpose()
    fibred = from_fibred(FibredData(inverse.transpose() * a, -j if negate_j else j))
    x = (inverse if x_is_inverse else Matrix.identity(ZZ, n)).to_ring(LAURENT)
    seifert, e = from_seifert(data), [basis_vector(n, i) for i in range(n)]
    agree = all(seifert.value(e[i], e[j]) == fibred.value(x.column(i), x.column(j))
                for i in range(n) for j in range(n))
    image = x * data.presentation
    killed = all(fibred.is_zero_element(image.column(j)) for j in range(n))
    return agree, killed


def test_fibred_formula_carries_the_seifert_formula():
    # for det A = +-1, tP - id = A^-T (tA - A^T): X = A^-1 maps the module
    # Lambda^2g / (tA - A^T) onto Lambda^2g / (tP - id) and carries the
    # Seifert pairing to the fibred pairing of (A^-T A, A - A^T)
    assert len(UNIMODULAR_CORPUS) == 10
    for data in UNIMODULAR_CORPUS:
        assert data.matrix.det() in (1, -1)
        assert _fibred_checks(data) == (True, True), data


def test_fibred_formula_negative_controls():
    # X = id breaks both checks, and J = A^T - A breaks the values, on all 10
    no_change = [_fibred_checks(d, x_is_inverse=False) for d in UNIMODULAR_CORPUS]
    assert not any(agree or killed for agree, killed in no_change)
    negated = [_fibred_checks(d, negate_j=True) for d in UNIMODULAR_CORPUS]
    assert not any(agree for agree, _ in negated)
