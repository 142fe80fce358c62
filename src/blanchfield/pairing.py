"""Blanchfield pairings presented by matrices.

Every pairing here is a Laurent numerator matrix N over one Laurent
denominator d, and the value of (v, w) is the Q(t)/Z[t,t^-1] class of
v^T N conj(w) / d.  The numerator is one packed integer dot product
(matrix._kronecker_apply): N's rows in v's support, packed at t = 2^B
once per width, against conj(w) packed the same way, read back as one
Laurent polynomial.  When v and w each have one nonzero entry, v_i and
w_j, the numerator is the Laurent product v_i N_ij conj(w_j), with no
packing; on a pair of generators (e_i, e_j) it is the entry N_ij
itself.  The three sources of input data differ only in N and d:

  * a Seifert matrix A of a knot presents Lambda^2g / P with
    P = tA - A^T; the pairing (t-1)(A - tA^T)^{-1} is (1-t) adj(P)^T
    over det P;
  * monodromy and intersection matrices (P, J) of a fibred 3-manifold
    present Lambda^k / (tP - id); the pairing J(t^{-1}P - id)^{-1} is
    J conj(adj(tP - id)) over conj(det(tP - id));
  * inclusion maps and intersection form of a general dual surface give
    the closed form -((i+ - t^{-1} i-)^{-1} i+ v)^T J conj(w), that is
    N = -(adj(i+ - t^{-1} i-) i+)^T J over det(i+ - t^{-1} i-).

SeifertData, FibredData and DualSurfaceData are immutable Records.  Each
builds its presentation matrix (tA - A^T, tP - id, i+ - t^{-1} i-), its
fraction-free elimination (adj, det) over Z[t,t^-1] and its pairing form
(N, d) from that elimination once, on first use (the elimination of
DualSurfaceData at construction, as its nonsingularity check); every
pairing, check and witness built from the same data object reads them.
Each presentation is linear in t, so each entry t^s (c0 + c1 t) is
written from two integers with no Laurent arithmetic: (c0, c1) is
(-a_ji, a_ij), (-delta_ij, p_ij) or (-i-_ij, i+_ij), with s = 0, 0 or
-1.  The Seifert numerator (1 - t) adj(P)^T is written the same way,
each entry from the coefficients c_k of adj(P)_ji as c_k - c_(k-1),
with no polynomial product.

PresentedPairing, the one pairing class, takes only its data object
(SeifertData, FibredData, DualSurfaceData or mkform.MKForm) and reads
data.form and data.adjugate, so a pairing holds its data but no data
object holds a pairing.  The dual-surface formula is written once, as a
function of an elimination (adj, det) of i+ - t^{-1} i- that verify's
specializations also call (see _dual_surface_form).

For a Seifert matrix A with det A = +-1 the two theorems agree: the
fibred data P = A^-T A, J = A - A^T have tP - id = A^-T (tA - A^T), and
the tests check that X = A^-1 is an isometry from the Seifert pairing to
the fibred one that sends every column of tA - A^T to zero.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .laurent import LaurentPoly, divides
from .matrix import LAURENT, ZZ, Matrix, Record, SingularMatrixError, _kronecker_apply
from .qmod import QModLambda, RationalFunction


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


def _pencil(lo: Sequence[Sequence[int]], hi: Matrix, val: int = 0) -> Matrix:
    """The Laurent matrix t^val (lo + t hi) for integer rows lo and an
    integer matrix hi, each entry written straight from its two ints."""
    of = LaurentPoly._of
    return Matrix(LAURENT, [[of(val, (c0, c1)) for c0, c1 in zip(r0, r1)]
                            for r0, r1 in zip(lo, hi.entries)], cols=hi.cols)


class _PresentedData(Record):
    """Input data whose Alexander module has a square presentation matrix.

    An immutable Record: subclasses name their fields and define the
    property presentation and the cached property form, the pairing
    (N, d) read off the elimination; both are computed on first use and
    kept in the instance dict, out of equality.  Every kind is read
    through the same interface: presentation, form, adjugate (adj P,
    det P), size (the rows of P) and determinant() (det P).
    """

    presentation: Matrix

    @functools.cached_property
    def adjugate(self) -> tuple[Matrix, LaurentPoly]:
        """(adj P, det P) of the presentation P, from one elimination."""
        return self.presentation.adjugate()

    @property
    def size(self) -> int:
        return self.presentation.rows

    def determinant(self) -> LaurentPoly:
        """det P of the presentation P."""
        return self.adjugate[1]


class SeifertData(_PresentedData):
    """A Seifert matrix, convention a_ij = lk(d_i, d_j^+).

    The skew form A - A^T of a genuine Seifert matrix is unimodular
    (its determinant, being the square of the Pfaffian, equals +1).
    """

    _fields = ("matrix",)

    def __init__(self, matrix: Matrix):
        _require_int_matrix(matrix, "A")
        if not matrix.is_square() or matrix.rows % 2:
            raise InvariantViolation("A square of even size")
        skew = matrix - matrix.transpose()
        if skew.det() != 1:
            raise InvariantViolation("A - A^T unimodular skew")
        super().__init__(matrix)

    @functools.cached_property
    def presentation(self) -> Matrix:
        """The presentation matrix tA - A^T of the Alexander module."""
        return _pencil([[-x for x in col] for col in zip(*self.matrix.entries)],
                       self.matrix)

    @functools.cached_property
    def form(self) -> tuple[Matrix, LaurentPoly]:
        """(N, d) of the pairing (t-1)(A - tA^T)^{-1}: A - tA^T = -P^T for
        P = tA - A^T, so it is (1-t) adj(P)^T over det P."""
        adj, det = self.adjugate
        return adj.transpose().map_entries(_one_minus_t), det

    def __repr__(self) -> str:
        return f"SeifertData({self.matrix})"


class FibredData(_PresentedData):
    """Monodromy matrix P and intersection matrix J of a fibred 3-manifold."""

    _fields = ("monodromy", "intersection")

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
        super().__init__(monodromy, intersection)

    @functools.cached_property
    def presentation(self) -> Matrix:
        """The presentation matrix tP - id of the Alexander module.

        Its determinant has constant term det(-id) = +-1, so it never
        vanishes.
        """
        n = self.monodromy.rows
        return _pencil([[-(i == j) for j in range(n)] for i in range(n)], self.monodromy)

    @functools.cached_property
    def form(self) -> tuple[Matrix, LaurentPoly]:
        """(N, d) of the pairing J (t^{-1}P - id)^{-1}: adj(t^-1 P - id) is
        the conjugate of adj(tP - id)."""
        adj, det = self.adjugate
        return self.intersection.to_ring(LAURENT) * adj.conjugate(), det.conjugate()


class DualSurfaceData(_PresentedData):
    """Inclusion maps i+, i- and intersection form J for a dual surface.

    The Mayer-Vietoris condition that i+ - t^{-1} i- be invertible over
    Q(t) forces the two inclusion matrices to be square here.
    """

    _fields = ("iota_plus", "iota_minus", "intersection")

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
        super().__init__(iota_plus, iota_minus, intersection)
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
        return _pencil([[-x for x in row] for row in self.iota_minus.entries],
                       self.iota_plus, -1)

    @functools.cached_property
    def form(self) -> tuple[Matrix, LaurentPoly]:
        """(N, d) of the dual-surface formula, from this data's elimination."""
        return _dual_surface_form(self.adjugate, self.iota_plus, self.intersection)


def _dual_surface_form(elimination: tuple[Matrix, LaurentPoly], iota_plus: Matrix,
                       intersection: Matrix) -> tuple[Matrix, LaurentPoly]:
    """(N, d) of -((i+ - t^{-1} i-)^{-1} i+ v)^T J conj(w) for any (adj, det)
    with (i+ - t^{-1} i-)^{-1} = adj / det: N = -(adj i+)^T J over d = det.

    The specializations (A, A^T, A - A^T) and (P, id, J) have
    i+ - t^{-1} i- = t^{-1} Q for the presentation Q = tA - A^T or tP - id,
    so they pass (adj Q, t^{-1} det Q) and need no elimination of their own.
    """
    adj, det = elimination
    return (-(adj * iota_plus.to_ring(LAURENT)).transpose()
            * intersection.to_ring(LAURENT), det)


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
    """The pairing form N / d = data.form on the module presented by
    P = data.presentation; membership reads data.adjugate.  On dual-surface
    data value reads v in H_1 of the surface, as i+ v, so only
    is_zero_element is in module coordinates there."""

    def __init__(self, data: _PresentedData):
        self.data = data
        self._numer, self._denom = data.form

    @property
    def size(self) -> int:
        return self._numer.rows

    @property
    def form(self) -> tuple[Matrix, LaurentPoly]:
        """(N, d): the pairing matrix is N / d, with N over Z[t,t^-1]."""
        return self._numer, self._denom

    @property
    def presentation(self) -> Matrix:
        return self.data.presentation

    def value(self, v: Sequence, w: Sequence) -> QModLambda:
        """The pairing of two coordinate vectors, as its class in Q/Lambda."""
        return QModLambda._pair(_sesquilinear(self._numer, v, w), self._denom)

    def is_zero_element(self, v: Sequence) -> bool:
        """Does v present zero, that is, does det P divide every entry of adj(P) v?"""
        (v,) = _vectors(self.size, v)
        adj, det = self.data.adjugate
        return all(divides(det, e) for e in adj.mul_vec(v))

    @property
    def pairing_matrix(self) -> Matrix:
        """The entries N_ij / d of form as reduced pairs, over no ring; kept
        only for the benchmark oracle, which will read form instead."""
        return Matrix(None, [[RationalFunction(e, self._denom) for e in row]
                             for row in self._numer.entries], cols=self.size)

    def __repr__(self) -> str:
        return f"<PresentedPairing {type(self.data).__name__} n={self.size}>"


def _of_kind(data: _PresentedData, kind: type) -> _PresentedData:
    """data itself, or TypeError unless it is a kind instance."""
    if not isinstance(data, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(data).__name__}")
    return data


def from_seifert(data: SeifertData) -> PresentedPairing:
    """Blanchfield pairing of a knot from its Seifert matrix.

    Module Lambda^2g/(tA - A^T); pairing (v, w) -> v^T (t-1)(A - tA^T)^{-1} conj(w).
    """
    return PresentedPairing(_of_kind(data, SeifertData))


def _one_minus_t(e: LaurentPoly) -> LaurentPoly:
    """(1 - t) e, written in one pass: its coefficient at t^(val+k) is
    c_k - c_(k-1), with c_(-1) = c_(m+1) = 0 for e = t^val (c_0 + ... + c_m t^m)."""
    c = e.coeffs
    return LaurentPoly._of(e.val, [a - b for a, b in zip(c + (0,), (0,) + c)])


def from_fibred(data: FibredData) -> PresentedPairing:
    """Blanchfield pairing of a fibred 3-manifold from (P, J).

    Module Lambda^k/(tP - id); pairing (v, w) -> v^T J (t^{-1}P - id)^{-1} conj(w).
    """
    return PresentedPairing(_of_kind(data, FibredData))


def from_dual_surface(data: DualSurfaceData) -> PresentedPairing:
    """Blanchfield pairing of a 3-manifold from dual-surface data (i+, i-, J)."""
    return PresentedPairing(_of_kind(data, DualSurfaceData))


def kearton_value(data: SeifertData, v: Sequence, w: Sequence) -> RationalFunction:
    """The classical (ill-defined) formula v^T (t-1)(tA - A^T)^{-1} conj(w).

    Returned as a raw rational function, deliberately not reduced into
    Q/Lambda: shifting v by an element of (tA - A^T)Lambda^2g can change
    the value by something outside Z[t,t^-1], which is the point of the
    negative well-definedness test.
    """
    # (t-1) adj(tA - A^T) over det is -N^T / d for the N / d of from_seifert
    numer, denom = from_seifert(data).form
    return RationalFunction(-_sesquilinear(numer.transpose(), v, w), denom)


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
