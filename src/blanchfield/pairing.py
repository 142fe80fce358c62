"""Blanchfield pairings presented by matrices.

Three sources of input data are supported:

  * a Seifert matrix A of a knot: module Lambda^2g / (tA - A^T) with
    pairing matrix (t-1)(A - tA^T)^{-1};
  * monodromy and intersection matrices (P, J) of a fibred 3-manifold:
    module Lambda^k / (tP - id) with pairing matrix J(t^{-1}P - id)^{-1};
  * inclusion maps and intersection form of a general dual surface,
    giving the closed form -((i+ - t^{-1} i-)^{-1} i+ v)^T J conj(w).

All pairings take values in Q(t)/Z[t,t^-1].  The pairing matrices and
module membership come from the adjugate over Z[t,t^-1]: v presents
zero exactly when det(P) divides every entry of adj(P) v.
"""

from __future__ import annotations

from typing import Sequence

from .laurent import LaurentPoly, T
from .matrix import LAURENT, QT, ZZ, Matrix
from .qmod import QModLambda, canonical_class
from .ratfunc import RationalFunction


class InvariantViolation(ValueError):
    """Input data fails one of its defining invariants."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        super().__init__(invariant if not detail else f"{invariant}: {detail}")


def _require_int_matrix(m: Matrix, name: str) -> Matrix:
    if m.ring is not ZZ:
        raise ValueError(f"{name} must be an integer matrix")
    return m


def _require_skew(j: Matrix) -> None:
    if not j.is_square() or j.transpose() != -j:
        raise InvariantViolation("J skew-symmetric")


class SeifertData:
    """A Seifert matrix, convention a_ij = lk(d_i, d_j^+).

    The skew form A - A^T of a genuine Seifert matrix is unimodular
    (its determinant, being the square of the Pfaffian, equals +1).
    """

    def __init__(self, matrix: Matrix):
        _require_int_matrix(matrix, "A")
        if not matrix.is_square() or matrix.rows % 2:
            raise InvariantViolation("A square of even size")
        skew = matrix - matrix.transpose()
        if skew.det() != 1:
            raise InvariantViolation("A - A^T unimodular skew")
        self.matrix = matrix

    @property
    def genus(self) -> int:
        return self.matrix.rows // 2

    @property
    def size(self) -> int:
        return self.matrix.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, SeifertData) and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"SeifertData({self.matrix})"


class FibredData:
    """Monodromy matrix P and intersection matrix J of a fibred 3-manifold."""

    def __init__(self, monodromy: Matrix, intersection: Matrix):
        _require_int_matrix(monodromy, "P")
        _require_int_matrix(intersection, "J")
        if not monodromy.is_square():
            raise InvariantViolation("P square")
        if monodromy.det() not in (1, -1):
            raise InvariantViolation("P invertible over the integers")
        _require_skew(intersection)
        if intersection.rows != monodromy.rows:
            raise InvariantViolation("P and J of equal size")
        if monodromy.transpose() * intersection * monodromy != intersection:
            raise InvariantViolation("P^T J P = J")
        self.monodromy = monodromy
        self.intersection = intersection

    @property
    def size(self) -> int:
        return self.monodromy.rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, FibredData)
                and self.monodromy == other.monodromy
                and self.intersection == other.intersection)


class DualSurfaceData:
    """Inclusion maps i+, i- and intersection form J for a dual surface.

    The Mayer-Vietoris condition that i+ - t^{-1} i- be invertible over
    Q(t) forces the two inclusion matrices to be square here.
    """

    def __init__(self, iota_plus: Matrix, iota_minus: Matrix, intersection: Matrix):
        _require_int_matrix(iota_plus, "Iplus")
        _require_int_matrix(iota_minus, "Iminus")
        _require_int_matrix(intersection, "J")
        if (iota_plus.rows, iota_plus.cols) != (iota_minus.rows, iota_minus.cols):
            raise InvariantViolation("Iplus and Iminus of equal shape")
        if not iota_plus.is_square():
            raise InvariantViolation("Iplus - t^-1 Iminus square")
        _require_skew(intersection)
        if intersection.rows != iota_plus.cols:
            raise InvariantViolation("J size matches iota domain")
        mv = _mayer_vietoris_matrix(iota_plus, iota_minus)
        if not mv.det():
            raise InvariantViolation("Iplus - t^-1 Iminus nonsingular")
        self.iota_plus = iota_plus
        self.iota_minus = iota_minus
        self.intersection = intersection

    @property
    def size(self) -> int:
        return self.iota_plus.rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, DualSurfaceData)
                and self.iota_plus == other.iota_plus
                and self.iota_minus == other.iota_minus
                and self.intersection == other.intersection)


def _mayer_vietoris_matrix(iplus: Matrix, iminus: Matrix) -> Matrix:
    tinv = LaurentPoly(-1, (1,))
    return iplus.to_ring(LAURENT) - tinv * iminus.to_ring(LAURENT)


def as_laurent_vector(v: Sequence) -> tuple[LaurentPoly, ...]:
    """Coerce a sequence of ints / Laurent polynomials to a Lambda-vector."""
    out = []
    for e in v:
        if isinstance(e, LaurentPoly):
            out.append(e)
        elif isinstance(e, int):
            out.append(LaurentPoly.const(e))
        else:
            raise TypeError(f"not a Laurent polynomial entry: {e!r}")
    return tuple(out)


def basis_vector(n: int, i: int) -> tuple[LaurentPoly, ...]:
    return tuple(LaurentPoly.one() if j == i else LaurentPoly.zero()
                 for j in range(n))


def divides(d: LaurentPoly, x: LaurentPoly) -> bool:
    """Does d divide x in Z[t,t^-1]?"""
    try:
        x.exact_div(d)
    except ArithmeticError:
        return False
    return True


class PresentedPairing:
    """A nonsingular square presentation over Z[t,t^-1] plus its pairing matrix.

    The pairing of coordinate vectors v, w is the Q/Lambda class of
    v^T * pairing_matrix * conj(w).  Internally the pairing matrix is
    kept as a Laurent numerator matrix over a common Laurent
    denominator, which keeps evaluation cheap and exact.  A caller that
    already has (adj, det) of the presentation may pass it as adjugate;
    otherwise it is computed on the first membership test.
    """

    def __init__(self, presentation: Matrix, pairing_numer: Matrix,
                 pairing_denom: LaurentPoly, label: str,
                 adjugate: tuple[Matrix, LaurentPoly] | None = None):
        if presentation.ring is not LAURENT or pairing_numer.ring is not LAURENT:
            raise ValueError("presentation data must live over Z[t,t^-1]")
        if not presentation.is_square() or pairing_numer.rows != presentation.rows \
                or not pairing_numer.is_square():
            raise ValueError("presentation and pairing matrices must be square, same size")
        det = presentation.det() if adjugate is None else adjugate[1]
        if presentation.rows and not det:
            raise InvariantViolation("det(presentation) != 0")
        if pairing_denom.is_zero():
            raise InvariantViolation("pairing denominator nonzero")
        self.presentation = presentation
        self.label = label
        self._numer = pairing_numer
        self._denom = pairing_denom
        self._adjugate = adjugate

    @property
    def size(self) -> int:
        return self.presentation.rows

    @property
    def pairing_matrix(self) -> Matrix:
        """The pairing matrix over Q(t)."""
        d = RationalFunction(self._denom)
        return self._numer.map_entries(lambda e: RationalFunction(e) / d, QT)

    def value(self, v: Sequence, w: Sequence) -> QModLambda:
        """The pairing of two coordinate vectors, reduced into Q/Lambda."""
        v = as_laurent_vector(v)
        w = as_laurent_vector(w)
        if len(v) != self.size or len(w) != self.size:
            raise ValueError(f"vectors must have length {self.size}")
        total = LaurentPoly.zero()
        for i, vi in enumerate(v):
            if vi.is_zero():
                continue
            row_acc = LaurentPoly.zero()
            for j, wj in enumerate(w):
                if wj.is_zero():
                    continue
                row_acc = row_acc + self._numer[i, j] * wj.conjugate()
            total = total + vi * row_acc
        return canonical_class(RationalFunction(total, self._denom))

    def element_equal(self, v: Sequence, w: Sequence) -> bool:
        """Do v and w present the same element of the module?"""
        v = as_laurent_vector(v)
        w = as_laurent_vector(w)
        if len(v) != self.size or len(w) != self.size:
            raise ValueError(f"vectors must have length {self.size}")
        if self.size == 0:
            return True
        if self._adjugate is None:
            self._adjugate = self.presentation.adjugate()
        adj, det = self._adjugate
        x = adj.mul_vec([a - b for a, b in zip(v, w)])
        return all(divides(det, e) for e in x)

    def is_zero_element(self, v: Sequence) -> bool:
        return self.element_equal(v, [0] * self.size)

    def __repr__(self) -> str:
        return f"<PresentedPairing {self.label} n={self.size}>"


def seifert_presentation(data: SeifertData) -> Matrix:
    """The presentation matrix tA - A^T of the Alexander module."""
    return T * data.matrix.to_ring(LAURENT) - data.matrix.transpose().to_ring(LAURENT)


def from_seifert(data: SeifertData) -> PresentedPairing:
    """Blanchfield pairing of a knot from its Seifert matrix.

    Module Lambda^2g/(tA - A^T); pairing (v, w) -> v^T (t-1)(A - tA^T)^{-1} conj(w).
    """
    presentation = seifert_presentation(data)
    # A - tA^T = -P^T for P = tA - A^T, and P has even size, so one
    # elimination gives both adj(A - tA^T) and adj(P) = -adj(A - tA^T)^T
    adj, denom = (-presentation.transpose()).adjugate()
    return PresentedPairing(presentation, (T - 1) * adj, denom, "seifert",
                            adjugate=(-adj.transpose(), denom))


def from_fibred(data: FibredData) -> PresentedPairing:
    """Blanchfield pairing of a fibred 3-manifold from (P, J).

    Module Lambda^k/(tP - id); pairing (v, w) -> v^T J (t^{-1}P - id)^{-1} conj(w).
    """
    presentation = (T * data.monodromy.to_ring(LAURENT)
                    - Matrix.identity(LAURENT, data.size))
    # det(tP - id) has constant term det(-id) = +-1, so it never vanishes;
    # adj(t^-1 P - id) is the conjugate of adj(tP - id)
    adj, det = presentation.adjugate()
    return PresentedPairing(presentation,
                            data.intersection.to_ring(LAURENT) * adj.conjugate(),
                            det.conjugate(), "fibred", adjugate=(adj, det))


class DualSurfaceEvaluator:
    """Evaluator for the dual-surface pairing formula.

    value(v, w) computes the Q/Lambda class of

        -((i+ - t^{-1} i-)^{-1} i+ v)^T  J  conj(w)

    for arbitrary coordinate vectors.  The formula computes the
    Blanchfield pairing of the images of v and w in the Alexander
    module; off that image the output carries no particular meaning,
    which is the caller's concern.
    """

    def __init__(self, data: DualSurfaceData):
        self.data = data
        mv = _mayer_vietoris_matrix(data.iota_plus, data.iota_minus)
        self._adj, self._denom = mv.adjugate()
        self._iplus = data.iota_plus.to_ring(LAURENT)
        self._j = data.intersection.to_ring(LAURENT)

    @property
    def size(self) -> int:
        return self.data.size

    def value(self, v: Sequence, w: Sequence) -> QModLambda:
        v = as_laurent_vector(v)
        w = as_laurent_vector(w)
        if len(v) != self.size or len(w) != self.size:
            raise ValueError(f"vectors must have length {self.size}")
        u = self._adj.mul_vec(self._iplus.mul_vec(v))
        jw = self._j.mul_vec(tuple(e.conjugate() for e in w))
        total = LaurentPoly.zero()
        for ui, ji in zip(u, jw):
            total = total + ui * ji
        return canonical_class(RationalFunction(-total, self._denom))


def from_dual_surface(data: DualSurfaceData) -> DualSurfaceEvaluator:
    return DualSurfaceEvaluator(data)


def kearton_value(data: SeifertData, v: Sequence, w: Sequence) -> RationalFunction:
    """The classical (ill-defined) formula v^T (t-1)(tA - A^T)^{-1} conj(w).

    Returned as a raw rational function, deliberately not reduced into
    Q/Lambda: shifting v by an element of (tA - A^T)Lambda^2g can change
    the value by something outside Z[t,t^-1], which is the point of the
    negative well-definedness test.
    """
    v = as_laurent_vector(v)
    w = as_laurent_vector(w)
    n = data.size
    if len(v) != n or len(w) != n:
        raise ValueError(f"vectors must have length {n}")
    numer, denom = kearton_form(data)
    total = LaurentPoly.zero()
    for i, vi in enumerate(v):
        for j, wj in enumerate(w):
            if vi and wj:
                total = total + vi * numer[i, j] * wj.conjugate()
    return RationalFunction(total, denom)


def kearton_form(data: SeifertData) -> tuple[Matrix, LaurentPoly]:
    """(t-1) adj(tA - A^T) over det(tA - A^T): the matrix of kearton_value."""
    adj, denom = seifert_presentation(data).adjugate()
    return (T - 1) * adj, denom


def stabilize(data: SeifertData, row: Sequence[int], kind: str) -> SeifertData:
    """Elementary S-equivalence enlargement by one hyperbolic pair.

    Appends two rows/columns carrying the given integer data and a
    single off-diagonal 1 with zero new diagonal: for kind "upper" the
    data enters the new column and the 1 sits above the new diagonal,
    for kind "lower" the data enters the new row and the 1 sits below.
    """
    n = data.size
    row = [int(x) for x in row]
    if len(row) != n:
        raise ValueError(f"enlargement data must have length {n}")
    if kind not in ("upper", "lower"):
        raise ValueError("kind must be 'upper' or 'lower'")
    old = data.matrix
    out = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(n):
        for j in range(n):
            out[i][j] = old[i, j]
    if kind == "upper":
        for i in range(n):
            out[i][n] = row[i]
        out[n][n + 1] = 1
    else:
        for j in range(n):
            out[n][j] = row[j]
        out[n + 1][n] = 1
    return SeifertData(Matrix.from_int_rows(ZZ, out))
