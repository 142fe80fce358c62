import itertools
import math
import random
import re

import pytest

from blanchfield.catalog import builtin, load_entry, random_seifert
from blanchfield.laurent import LaurentPoly, T
from blanchfield.matrix import (LAURENT, ZZ, Matrix, Ring, SingularMatrixError,
                               _elimination_width, _pack, _unpack)
from blanchfield.qmod import RationalFunction as RF


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
    eye = Matrix.identity(LAURENT, 3)
    assert _assert_adjugate_identity(eye) == (eye, LaurentPoly.one())
    eye = Matrix.identity(ZZ, 3)
    assert _assert_adjugate_identity(eye) == (eye, 1)


def test_inverse_trefoil_base():
    # the inverse is adj/det, kept as that pair over Z[t,t^-1]
    m = laurent_matrix([[T - 1, 1], [-T, T - 1]])
    adj, det = _assert_adjugate_identity(m)
    assert det == LaurentPoly.parse("t^2 - t + 1")
    assert adj == laurent_matrix([[T - 1, -1], [T, T - 1]])


def test_inverse_of_singular_rejected():
    m = laurent_matrix([[1, 1], [1, 1]])
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
        for ring in (LAURENT, REFERENCE):
            _assert_adjugate_identity(Matrix(ring, m.entries))
        checked += 1


def _leibniz_det(m):
    """The determinant as its signed sum over permutations."""
    total = LaurentPoly.zero()
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += math.prod((m[i, j] for i, j in enumerate(perm)),
                           start=LaurentPoly.const((-1) ** inversions))
    return total


def test_bareiss_matches_field_det():
    # the reference is the Leibniz expansion, which divides nowhere
    rng = random.Random(15)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = _random_laurent_matrix(rng, n)
        assert m.det() == _leibniz_det(m)


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


# --- the integer (Kronecker) elimination over Z[t,t^-1] -------------------

# A copy of LAURENT is not LAURENT, so matrices over it take the generic
# Bareiss over Laurent polynomials: the reference for the integer path.
REFERENCE = Ring("Z[t,t^-1], Laurent Bareiss", LAURENT.zero, LAURENT.one,
                 LAURENT.from_int, LAURENT.exact_div)


def _eliminations(m):
    """(adj rows, det) or the SingularMatrixError message, by the integer
    path and by the reference."""
    out = []
    for ring in (LAURENT, REFERENCE):
        try:
            adj, det = Matrix(ring, m.entries, cols=m.cols).adjugate()
            out.append((adj.entries, det))
        except SingularMatrixError as exc:
            out.append(str(exc))
    return out


def _shift_rows(m, shifts):
    return Matrix(LAURENT, [[LaurentPoly.t_power(k) * e for e in row]
                            for row, k in zip(m.entries, shifts)],
                  cols=m.cols)


def _kronecker_cases():
    rng = random.Random(17)
    for g in range(7):
        for bound in (1, 25, 10 ** 6):
            pres = random_seifert(g, bound, 100 * g + bound).presentation
            yield f"seifert-g{g}-b{bound}", pres
            yield f"seifert-g{g}-b{bound}-shifted", _shift_rows(
                pres, [rng.randint(-3, 3) for _ in range(pres.rows)])
    for n in (1, 2, 4, 6):
        p = Matrix.from_int_rows(ZZ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        yield f"fibred-{n}", T * p.to_ring(LAURENT) - Matrix.identity(LAURENT, n)
    yield "fibred-trefoil", builtin("trefoil-fibred").data().presentation
    yield "dual-trefoil", builtin("trefoil-dual").data().presentation
    for g in (1, 2, 3):
        a = random_seifert(g, 5, g).matrix.to_ring(LAURENT)
        yield f"dual-g{g}", a - LaurentPoly.t_power(-1) * a.transpose()
    # a zero leading pivot forces a row swap
    yield "swap", laurent_matrix([[0, LaurentPoly.t_power(2), 3], [1 + T, 2, -T],
                                  [LaurentPoly.t_power(-2), 0, 1]])
    rows = [list(row) for row in random_seifert(2, 3, 4).presentation.entries]
    rows[0][0] = LaurentPoly.zero()
    yield "swap-seifert", Matrix(LAURENT, rows)
    yield "zero-entries", laurent_matrix([[1 + T, 0, 0], [T, 0, 0], [0, 2, 1]])
    yield "zero-row", laurent_matrix([[1 + T, LaurentPoly.t_power(-1)], [0, 0]])
    yield "zero-column", laurent_matrix([[0, LaurentPoly.t_power(-1)], [0, 1 - T]])
    yield "empty", Matrix(LAURENT, (), cols=0)


@pytest.mark.parametrize("label, m", list(_kronecker_cases()))
def test_integer_elimination_matches_laurent_bareiss(label, m):
    kronecker, reference = _eliminations(m)
    assert kronecker == reference
    assert m.det() == Matrix(REFERENCE, m.entries, cols=m.cols).det()
    if isinstance(kronecker, str):
        assert label.startswith("zero") and not m.det()


def test_singular_inputs_raise_at_the_same_column():
    for m, column in ((laurent_matrix([[1 + T, LaurentPoly.t_power(-1)], [0, 0]]), 1),
                      (laurent_matrix([[1 + T, 0, 0], [T, 0, 0], [0, 2, 1]]), 2),
                      (laurent_matrix([[0, LaurentPoly.t_power(-1)], [0, 1 - T]]), 0)):
        with pytest.raises(SingularMatrixError, match=f"column {column}$"):
            m.adjugate()
        assert m.det() == LaurentPoly.zero()


def test_integer_elimination_matches_sympy_oracle():
    # sympy's adj_det trips over zero characteristic-polynomial coefficients
    # (sympy 1.14), so the oracle is its det together with the identity
    # M adj = det I, which fixes adj once det is nonzero
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    zt = sp.ZZ[sp.Symbol("t")]
    for label, m in _kronecker_cases():
        if label.startswith("zero") or not m.rows:
            continue
        n = m.rows
        # t^k m is a polynomial matrix; its adj and det are t^(k(n-1)) adj m
        # and t^(kn) det m
        k = -min((e.val for row in m.entries for e in row if e), default=0)

        def poly(e, shift):
            return zt.ring.from_dict({(e.val + shift + i,): c for i, c in enumerate(e.coeffs)})

        def poly_matrix(rows, shift):
            return DomainMatrix([[poly(e, shift) for e in row] for row in rows], (n, n), zt)

        oracle = poly_matrix(m.entries, k)
        adj, det = m.adjugate()
        det_k = poly(det, k * n)
        assert det_k == oracle.det(), label
        product = (oracle * poly_matrix(adj.entries, k * (n - 1))).to_list()
        assert product == [[det_k if i == j else zt.zero for j in range(n)]
                           for i in range(n)], label


def _packing_width(m):
    """The width B the integer path packs m with: bit length of the ceiling
    of Hadamard's bound sqrt(prod_i (1 + sum_j |m_ij|^2)) on the minors of
    [m | I], |p| the coefficient 1-norm, plus 2."""
    bound = 1
    for row in m.entries:
        bound *= 1 + sum(sum(abs(c) for c in e.coeffs) ** 2 for e in row)
    root = math.isqrt(bound)
    root += root * root < bound
    return root.bit_length() + 2


def test_extremal_minors_reach_the_packing_bound():
    # a signed permutation of monomials +-b t^k: its rows are orthogonal, so
    # it attains Hadamard's bound, and each row's 1-norm is one coefficient
    b = 10 ** 6
    m = laurent_matrix([[0, 0, -b * LaurentPoly.t_power(2), 0, 0, 0],
                        [b * LaurentPoly.t_power(-1), 0, 0, 0, 0, 0],
                        [0, 0, 0, 0, -b, 0],
                        [0, b * LaurentPoly.t_power(3), 0, 0, 0, 0],
                        [0, 0, 0, 0, 0, b * T],
                        [0, 0, 0, -b * LaurentPoly.t_power(-4), 0, 0]])
    kronecker, reference = _eliminations(m)
    assert kronecker == reference
    bits = _packing_width(m)
    assert bits == _elimination_width(m)
    _, det = kronecker
    assert det.is_unit_multiple_of(LaurentPoly.const(b ** 6))
    # det's coefficient needs bits - 1 bits as a signed digit: the width
    # has one spare bit, and one bit below the needed width loses it
    assert (b ** 6).bit_length() == bits - 2
    for width, fits in ((bits - 1, True), (bits - 2, False)):
        assert (_unpack(_pack(det, -det.val, width), width, det.val) == det) is fits


def test_pack_unpack_round_trip_at_the_digit_limit():
    for bits in (3, 8, 64, 101):
        top = (1 << (bits - 1)) - 1
        for coeffs in ((top,), (-top,), (top, -top, 0, top), (-top, 0, 0, -top), (1, -top)):
            for val in (-3, 0, 2):
                p = LaurentPoly(val, coeffs)
                assert _unpack(_pack(p, -val, bits), bits, val) == p
        # one past the limit no longer fits a signed digit
        p = LaurentPoly(0, (top + 1, 1))
        assert _unpack(_pack(p, 0, bits), bits, 0) != p
    assert _pack(LaurentPoly.zero(), -2, 8) == 0
    assert _unpack(0, 8, 5) == LaurentPoly.zero()


# --- value semantics of the records -----------------------------------------

def test_record_reprs_are_short_and_carry_no_address():
    # a Record repr spells out its fields: a ring by its name, a matrix by
    # its rows, never a function object with its per-run memory address
    data = load_entry("name: empty\nkind: fibred\nP: []\nJ: []\n").data()
    assert repr(data) == "FibredData(monodromy=Matrix([]), intersection=Matrix([]))"
    assert "0x" not in repr(data) and len(repr(data)) < 80
    assert (repr(ZZ), repr(LAURENT)) == ("Ring('Z')", "Ring('Z[t,t^-1]')")
    assert repr(laurent_matrix([[T, -1], [0, 2]])) == "Matrix([[t, -1], [0, 2]])"


def test_records_are_immutable_values():
    from blanchfield.catalog import CatalogEntry
    from blanchfield.verify import CheckResult
    m = Matrix.from_int_rows(ZZ, [[1, 2], [3, 4]])
    same = Matrix(ZZ, ((1, 2), (3, 4)))
    entry = builtin("trefoil")
    for a, b, other in ((m, same, m.transpose()),
                        (ZZ, Ring("Z", 0, 1, int, ZZ.exact_div), LAURENT),
                        (entry, builtin("trefoil"), builtin("figure-eight")),
                        (CheckResult("hermitian", True), CheckResult("hermitian", True, ""),
                         CheckResult("hermitian", False))):
        assert a == b and hash(a) == hash(b) and a != other and a != tuple(vars(a).values())
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
    assert repr(CheckResult("x", True)) == \
        "CheckResult(name='x', passed=True, detail='', counterexample=None)"
    # a copy of a ring is equal to it but takes no identity-keyed fast path
    assert REFERENCE == Ring("Z[t,t^-1], Laurent Bareiss", *(getattr(LAURENT, f)
                                                               for f in LAURENT._fields[1:]))
    assert REFERENCE != LAURENT and REFERENCE is not LAURENT
    # memos live in the instance dict and leave equality alone
    m2 = laurent_matrix([[T, 1], [0, 1]])
    m2.mul_vec([LaurentPoly.one(), LaurentPoly.one()])
    assert "_packed" in vars(m2) and m2 == laurent_matrix([[T, 1], [0, 1]])
    assert entry.data() is entry.data() and entry == CatalogEntry(*entry._key())
    # the Laurent and rational values compare by value, and not with ints
    assert LaurentPoly(0, (2, 1)) == LaurentPoly(0, [2, 1]) != 2
    assert hash(LaurentPoly.const(3)) == hash(LaurentPoly(0, (3,)))
    assert RF(T * T - 1, T - 1) == RF(T + 1) and hash(RF(2, 4)) == hash(RF(1, 2))
    assert RF(1) != 1 and LaurentPoly.one().__eq__(1) is NotImplemented


def test_from_int_rows_rejects_non_integral_entries():
    # int() used to truncate these: [[-1.5, 1], [0, -1.9]] read as the
    # trefoil's Seifert matrix, and [[0.5]] over Z[t,t^-1] as [[0]]
    for ring, rows, bad in ((ZZ, [[-1.5, 1], [0, -1.9]], "-1.5"), (LAURENT, [[0.5]], "0.5"),
                            (ZZ, [[1, 0.5]], "0.5"), (LAURENT, [[1], ["2"]], "'2'")):
        with pytest.raises(TypeError, match=f"matrix entry {re.escape(bad)} is not an integer"):
            Matrix.from_int_rows(ring, rows)


def test_from_int_rows_accepts_integral_values():
    for ring in (ZZ, LAURENT):
        m = Matrix.from_int_rows(ring, [[True, 2.0], [0, -1]])
        assert m == Matrix.from_int_rows(ring, [[1, 2], [0, -1]])
    assert all(type(e) is int for row in Matrix.from_int_rows(ZZ, [[True, 2.0]]).entries
               for e in row)


def test_from_int_rows_accepts_numpy_integers():
    np = pytest.importorskip("numpy")
    rows = np.array([[-1, 1], [0, -1]], dtype=np.int64)
    for ring in (ZZ, LAURENT):
        assert Matrix.from_int_rows(ring, rows) == Matrix.from_int_rows(ring, [[-1, 1], [0, -1]])
    assert all(type(e) is int for row in Matrix.from_int_rows(ZZ, rows).entries for e in row)
