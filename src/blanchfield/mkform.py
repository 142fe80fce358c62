"""The hermitian matrix M_K(t) presenting the Blanchfield pairing.

After an integer change of basis making A - A^T the standard symplectic
form (0 id; -id 0), the matrix

    M_K(t) = diag((1-t^-1)^-1 id, id) A diag(id, (1-t) id)
           + diag(id, (1-t^-1) id) A^T diag((1-t)^-1 id, id)

is hermitian and presents the Alexander module with pairing
(v, w) -> -v^T M_K(t^-1)^{-1} conj(w).  Its signatures at unit-circle
points equal the Levine-Tristram signatures.  Because A - A^T vanishes
on the diagonal blocks of a symplectic basis, the denominators cancel
and each k x k block of M_K is an integer Laurent expression in A:

    ( a_ij                  a_ji - t a_ij                     )
    ( a_ij - t^-1 a_ji      (1 - t) a_ij + (1 - t^-1) a_ji    )

With C the congruence, X = diag(id_k, (1 - t^-1) id_k) C is an isometry
from the Seifert pairing to this one: X sends every column of tA - A^T
to zero in Lambda^2k / M_K(t), and the Seifert value of (e_i, e_j)
equals the M_K value of (X e_i, X e_j).  The test suite checks both.

MKForm is presented data like SeifertData: an immutable Record whose
presentation is M_K, with its elimination and its pairing form (N, d)
cached on first use.  pairing.PresentedPairing(form) is its pairing,
module Lambda^2k/M_K(t) with -v^T M_K(t^-1)^{-1} conj(w); the form keeps
no pairing.
"""

from __future__ import annotations

import functools

from .laurent import LaurentPoly
from .matrix import LAURENT, ZZ, Matrix
from .pairing import SeifertData, _PresentedData


class MKAssemblyError(ArithmeticError):
    """The assembled matrix failed a structural requirement."""


def symplectic_normalize(skew: Matrix) -> Matrix:
    """Unimodular integer P with P * skew * P^T = (0 id; -id 0).

    Works by integer congruence moves: for each new basis pair, gcd
    sweeps on the current row concentrate a +-1 pairing next to the
    pivot, the complement is then cleared, and a final permutation
    groups the two halves of the symplectic basis.
    """
    if skew.ring is not ZZ:
        raise ValueError("symplectic normalization needs an integer matrix")
    n = skew.rows
    if not skew.is_square() or n % 2:
        raise ValueError("skew form must be square of even size")
    if skew.transpose() != -skew:
        raise ValueError("matrix is not skew-symmetric")
    m = [[skew[i, j] for j in range(n)] for i in range(n)]
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def add_congruence(dst: int, src: int, c: int) -> None:
        # basis move e_dst += c * e_src, i.e. M -> E M E^T with E = I + c E_{dst,src}
        for j in range(n):
            m[dst][j] += c * m[src][j]
        for i in range(n):
            m[i][dst] += c * m[i][src]
        for j in range(n):
            p[dst][j] += c * p[src][j]

    def swap_congruence(a: int, b: int) -> None:
        m[a], m[b] = m[b], m[a]
        for r in m:
            r[a], r[b] = r[b], r[a]
        p[a], p[b] = p[b], p[a]

    def negate_congruence(a: int) -> None:
        m[a] = [-x for x in m[a]]
        for r in m:
            r[a] = -r[a]
        p[a] = [-x for x in p[a]]

    for i in range(0, n, 2):
        while True:
            live = [j for j in range(i + 1, n) if m[i][j]]
            if not live:
                raise ValueError("skew form is singular")
            j0 = min(live, key=lambda j: abs(m[i][j]))
            if j0 != i + 1:
                swap_congruence(j0, i + 1)
            pivot = m[i][i + 1]
            clean = True
            for j in range(i + 2, n):
                q = m[i][j] // pivot
                if q:
                    add_congruence(j, i + 1, -q)
                if m[i][j]:
                    clean = False
            if clean:
                break
        if m[i][i + 1] < 0:
            negate_congruence(i + 1)
        if m[i][i + 1] != 1:
            raise ValueError("skew form is not unimodular")
        for j in range(i + 2, n):
            c = m[i + 1][j]
            if c:
                add_congruence(j, i, c)

    order = list(range(0, n, 2)) + list(range(1, n, 2))
    result = Matrix.from_int_rows(ZZ, [p[r] for r in order])
    std = standard_symplectic(n // 2)
    if result * skew * result.transpose() != std:
        raise AssertionError("symplectic normalization postcondition failed")
    return result


def standard_symplectic(k: int) -> Matrix:
    """The block matrix (0 id_k; -id_k 0)."""
    n = 2 * k
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        rows[i][k + i] = 1
        rows[k + i][i] = -1
    return Matrix.from_int_rows(ZZ, rows)


class MKForm(_PresentedData):
    """M_K(t) together with the congruence used to standardize A - A^T.

    An immutable Record whose presentation is M_K.  Raises ValueError
    unless M_K is over Z[t,t^-1], and MKAssemblyError unless it is
    hermitian and nonsingular; the determinant taken for that check is
    kept.
    """

    _fields = ("mk", "congruence")

    def __init__(self, mk: Matrix, congruence: Matrix):
        if mk.ring is not LAURENT:
            raise ValueError("M_K must be a matrix over Z[t,t^-1]")
        if mk.conjugate_transpose() != mk:
            raise MKAssemblyError("assembled M_K is not hermitian")
        det = mk.det()
        if not det:
            raise MKAssemblyError("assembled M_K is singular")
        super().__init__(mk, congruence)
        vars(self)["_det"] = det

    @property
    def presentation(self) -> Matrix:
        return self.mk

    def determinant(self) -> LaurentPoly:
        """det M_K, as taken by the constructor: no elimination."""
        return self._det

    @functools.cached_property
    def form(self) -> tuple[Matrix, LaurentPoly]:
        """(N, d) of the pairing -v^T M_K(t^-1)^{-1} conj(w): adj(M_K(t^-1))
        and det(M_K(t^-1)) are the conjugates of adj(M_K) and det(M_K)."""
        adj, det = self.adjugate
        return -adj.conjugate(), det.conjugate()

    def __repr__(self) -> str:
        return f"<MKForm 2k={self.size}>"


def mk_matrix(data: SeifertData) -> MKForm:
    """Assemble M_K(t) for a Seifert matrix, normalizing A - A^T first.

    The entries come from the block formulas in the module docstring,
    applied to A after the symplectic congruence.  M_K is then checked
    to be hermitian and nonsingular; a failure indicates invalid input
    (or a bug) and raises MKAssemblyError.
    """
    n = data.size
    k = n // 2
    congruence = symplectic_normalize(data.matrix - data.matrix.transpose())
    a = congruence * data.matrix * congruence.transpose()

    def entry(i: int, j: int) -> LaurentPoly:
        # each block formula as t^val (c0 + c1 t + c2 t^2), from its integers
        if i < k and j < k:
            return LaurentPoly._of(0, (a[i, j],))
        if i < k:
            return LaurentPoly._of(0, (a[j, i], -a[i, j]))
        if j < k:
            return LaurentPoly._of(-1, (-a[j, i], a[i, j]))
        return LaurentPoly._of(-1, (-a[j, i], a[i, j] + a[j, i], -a[i, j]))

    mk = Matrix(LAURENT, [[entry(i, j) for j in range(n)] for i in range(n)],
                cols=n)
    return MKForm(mk, congruence)

