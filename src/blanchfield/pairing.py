"""Blanchfield pairings presented by matrices.

Every pairing here is a Laurent numerator matrix N over one Laurent
denominator d, and the value of (v, w) is the Q(t)/Z[t,t^-1] class of
v^T N conj(w) / d.  The numerator is one packed integer dot product
(matrix._kronecker_apply): N's rows in v's support, packed at t = 2^B
once per width, against conj(w) packed the same way, read back as one
Laurent polynomial.  The three sources of input data differ only in N
and d:

  * a Seifert matrix A of a knot presents Lambda^2g / P with
    P = tA - A^T; the pairing (t-1)(A - tA^T)^{-1} is (1-t) adj(P)^T
    over det P;
  * monodromy and intersection matrices (P, J) of a fibred 3-manifold
    present Lambda^k / (tP - id); the pairing J(t^{-1}P - id)^{-1} is
    J conj(adj(tP - id)) over conj(det(tP - id));
  * inclusion maps and intersection form of a general dual surface give
    the closed form -((i+ - t^{-1} i-)^{-1} i+ v)^T J conj(w), that is
    N = -(adj(i+ - t^{-1} i-) i+)^T J over det(i+ - t^{-1} i-).

SeifertData, FibredData and DualSurfaceData build their presentation
matrix (tA - A^T, tP - id, i+ - t^{-1} i-) and its fraction-free
elimination (adj, det) over Z[t,t^-1] once, on first use (for
DualSurfaceData at construction, as its nonsingularity check), and
every pairing, check and witness built from the same data object reads
them.  Module membership uses the same adjugate: v presents zero
exactly when det P divides every entry of adj(P) v.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .laurent import LaurentPoly, T, divides
from .matrix import LAURENT, ZZ, Matrix, SingularMatrixError, _kronecker_apply
from .qmod import QModLambda
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


class _PresentedData:
    """Input data whose Alexander module has a square presentation matrix.

    Subclasses define the cached property presentation; its elimination
    is computed on first use and never changes after.
    """

    presentation: Matrix

    @functools.cached_property
    def adjugate(self) -> tuple[Matrix, LaurentPoly]:
        """(adj P, det P) of the presentation P, from one elimination."""
        return self.presentation.adjugate()


class SeifertData(_PresentedData):
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

    @functools.cached_property
    def presentation(self) -> Matrix:
        """The presentation matrix tA - A^T of the Alexander module."""
        return (T * self.matrix.to_ring(LAURENT)
                - self.matrix.transpose().to_ring(LAURENT))

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


class FibredData(_PresentedData):
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

    @functools.cached_property
    def presentation(self) -> Matrix:
        """The presentation matrix tP - id of the Alexander module.

        Its determinant has constant term det(-id) = +-1, so it never
        vanishes.
        """
        return (T * self.monodromy.to_ring(LAURENT)
                - Matrix.identity(LAURENT, self.size))

    @property
    def size(self) -> int:
        return self.monodromy.rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, FibredData)
                and self.monodromy == other.monodromy
                and self.intersection == other.intersection)


class DualSurfaceData(_PresentedData):
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
        self.iota_plus = iota_plus
        self.iota_minus = iota_minus
        self.intersection = intersection
        try:
            self.adjugate
        except SingularMatrixError:
            raise InvariantViolation("Iplus - t^-1 Iminus nonsingular") from None

    @functools.cached_property
    def presentation(self) -> Matrix:
        """The Mayer-Vietoris matrix i+ - t^-1 i-.

        It presents the Alexander module: it is t^-1 (tA - A^T) for
        (A, A^T) and t^-1 (tP - id) for (P, id).
        """
        return (self.iota_plus.to_ring(LAURENT)
                - T.conjugate() * self.iota_minus.to_ring(LAURENT))

    @property
    def size(self) -> int:
        return self.iota_plus.rows

    def __eq__(self, other) -> bool:
        return (isinstance(other, DualSurfaceData)
                and self.iota_plus == other.iota_plus
                and self.iota_minus == other.iota_minus
                and self.intersection == other.intersection)


def as_laurent_vector(v: Sequence) -> tuple[LaurentPoly, ...]:
    """Coerce a sequence of ints / Laurent polynomials to a Lambda-vector;
    a tuple of Laurent polynomials is one already, and comes back as is."""
    if type(v) is tuple:
        for e in v:
            if not isinstance(e, LaurentPoly):
                break
        else:
            return v
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


def _vectors(n: int, *vectors: Sequence) -> tuple[tuple, ...]:
    """Coerce coordinate vectors to Lambda-vectors of length n."""
    vectors = tuple(map(as_laurent_vector, vectors))
    for v in vectors:
        if len(v) != n:
            raise ValueError(f"vectors must have length {n}")
    return vectors


def _sesquilinear(numer: Matrix, v: Sequence, w: Sequence) -> LaurentPoly:
    """v^T numer conj(w): one packed integer dot product."""
    v, w = _vectors(numer.rows, v, w)
    return _kronecker_apply(numer, [e.conjugate() if e.coeffs else e for e in w], v)


class PresentedPairing:
    """A nonsingular square presentation over Z[t,t^-1] plus its pairing form.

    The form is a Laurent numerator matrix N over one Laurent
    denominator d, and the pairing of coordinate vectors v, w is the
    Q/Lambda class of v^T N conj(w) / d.  adjugate is (adj, det) of the
    presentation; membership tests read it.
    """

    def __init__(self, presentation: Matrix, pairing_numer: Matrix,
                 pairing_denom: LaurentPoly, label: str,
                 adjugate: tuple[Matrix, LaurentPoly]):
        if presentation.ring is not LAURENT or pairing_numer.ring is not LAURENT:
            raise ValueError("presentation data must live over Z[t,t^-1]")
        if not presentation.is_square() or pairing_numer.rows != presentation.rows \
                or not pairing_numer.is_square():
            raise ValueError("presentation and pairing matrices must be square, same size")
        if presentation.rows and not adjugate[1]:
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
    def form(self) -> tuple[Matrix, LaurentPoly]:
        """(N, d): the pairing matrix is N / d, with N over Z[t,t^-1]."""
        return self._numer, self._denom

    @property
    def pairing_matrix(self) -> Matrix:
        """The entries N_ij / d of form as reduced pairs, over no ring; kept
        only for the benchmark oracle, which will read form instead."""
        return Matrix(None, [[RationalFunction(e, self._denom) for e in row]
                             for row in self._numer.entries], cols=self.size)

    def value(self, v: Sequence, w: Sequence) -> QModLambda:
        """The pairing of two coordinate vectors, as its class in Q/Lambda."""
        return QModLambda._pair(_sesquilinear(self._numer, v, w), self._denom)

    def element_equal(self, v: Sequence, w: Sequence) -> bool:
        """Do v and w present the same element of the module?"""
        v, w = _vectors(self.size, v, w)
        return self.is_zero_element(tuple([a - b for a, b in zip(v, w)]))

    def is_zero_element(self, v: Sequence) -> bool:
        """Does v present zero, that is, does det P divide every entry of adj(P) v?"""
        (v,) = _vectors(self.size, v)
        adj, det = self._adjugate
        return all(divides(det, e) for e in adj.mul_vec(v))

    def __repr__(self) -> str:
        return f"<PresentedPairing {self.label} n={self.size}>"


def from_seifert(data: SeifertData) -> PresentedPairing:
    """Blanchfield pairing of a knot from its Seifert matrix.

    Module Lambda^2g/(tA - A^T); pairing (v, w) -> v^T (t-1)(A - tA^T)^{-1} conj(w).
    """
    # A - tA^T = -P^T for P = tA - A^T, so (t-1)(A - tA^T)^{-1} is
    # (1-t) adj(P)^T over det P
    adj, det = data.adjugate
    return PresentedPairing(data.presentation, (1 - T) * adj.transpose(), det,
                            "seifert", adjugate=data.adjugate)


def from_fibred(data: FibredData) -> PresentedPairing:
    """Blanchfield pairing of a fibred 3-manifold from (P, J).

    Module Lambda^k/(tP - id); pairing (v, w) -> v^T J (t^{-1}P - id)^{-1} conj(w).
    """
    # adj(t^-1 P - id) is the conjugate of adj(tP - id)
    adj, det = data.adjugate
    return PresentedPairing(data.presentation,
                            data.intersection.to_ring(LAURENT) * adj.conjugate(),
                            det.conjugate(), "fibred", adjugate=data.adjugate)


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
        adj, self._denom = data.adjugate
        # -(adj i+ v)^T J conj(w) = v^T N conj(w) with N = -(adj i+)^T J
        self._numer = (-(adj * data.iota_plus.to_ring(LAURENT)).transpose()
                       * data.intersection.to_ring(LAURENT))

    @property
    def size(self) -> int:
        return self.data.size

    def value(self, v: Sequence, w: Sequence) -> QModLambda:
        return QModLambda._pair(_sesquilinear(self._numer, v, w), self._denom)


def from_dual_surface(data: DualSurfaceData) -> DualSurfaceEvaluator:
    return DualSurfaceEvaluator(data)


def kearton_value(data: SeifertData, v: Sequence, w: Sequence) -> RationalFunction:
    """The classical (ill-defined) formula v^T (t-1)(tA - A^T)^{-1} conj(w).

    Returned as a raw rational function, deliberately not reduced into
    Q/Lambda: shifting v by an element of (tA - A^T)Lambda^2g can change
    the value by something outside Z[t,t^-1], which is the point of the
    negative well-definedness test.
    """
    numer, denom = kearton_form(data)
    return RationalFunction(_sesquilinear(numer, v, w), denom)


def kearton_form(data: SeifertData) -> tuple[Matrix, LaurentPoly]:
    """(t-1) adj(tA - A^T) over det(tA - A^T): the matrix of kearton_value."""
    adj, denom = data.adjugate
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
