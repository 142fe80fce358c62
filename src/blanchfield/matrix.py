"""Exact dense linear algebra over Z, Z[t,t^-1] and Q(t).

Determinants and adjugates use fraction-free (Bareiss) elimination, so
no fractions arise over Z or Z[t,t^-1]; callers keep adj/det rather
than an inverse.  Matrices are immutable and 0x0 matrices are legal
(the Seifert matrix of the unknot).

Over Z[t,t^-1] the elimination runs on integers (Kronecker
substitution): each row is shifted by a power of t to a polynomial row,
each entry is packed as its value at t = 2^B, the integer matrix is
eliminated, and each result is read back as its signed base-2^B digits
with the shifts undone.  B is the bit length of the product of the row
coefficient 1-norms of [M | I], plus 2.  Every entry Bareiss forms is a
minor of [M | I], with coefficients below 2^(B-2), so it vanishes at
2^B only if it is zero and its digits give it back: the integer run
makes the same pivot choices and row swaps, raises SingularMatrixError
at the same column, and returns the same (adj, det) as Bareiss over
Z[t,t^-1].  B grows like n log(n (d + 1) max|coefficient|) for an
n x n matrix whose rows span d + 1 powers of t, and the integers have at
most about (n d + 1) B bits, so the cost stays polynomial in the input.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

from .laurent import LaurentPoly
from .ratfunc import RationalFunction


class SingularMatrixError(ArithmeticError):
    """Raised when an adjugate meets a singular matrix."""


@dataclasses.dataclass(frozen=True)
class Ring:
    """The little interface the matrix algorithms need from a ring."""
    name: str
    zero: object
    one: object
    from_int: Callable
    exact_div: Callable


def _int_exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("integer division is not exact")
    return q


ZZ = Ring("Z", 0, 1, int, _int_exact_div)
LAURENT = Ring("Z[t,t^-1]", LaurentPoly.zero(), LaurentPoly.one(),
               LaurentPoly.const, lambda a, b: a.exact_div(b))
QT = Ring("Q(t)", RationalFunction.zero(), RationalFunction.one(),
          RationalFunction, lambda a, b: a / b)


@dataclasses.dataclass(frozen=True)
class Matrix:
    """An immutable dense matrix over one of the rings above."""

    ring: Ring
    entries: tuple[tuple, ...]
    rows: int
    cols: int

    def __init__(self, ring: Ring, rows: Sequence[Sequence], cols: int | None = None):
        grid = tuple(tuple(row) for row in rows)
        ncols = len(grid[0]) if grid else (0 if cols is None else cols)
        if any(len(r) != ncols for r in grid):
            raise ValueError("ragged rows in matrix")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", ncols)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> Matrix:
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)]
                          for i in range(n)], cols=n)

    @classmethod
    def from_int_rows(cls, ring: Ring, rows: Sequence[Sequence[int]]) -> Matrix:
        return cls(ring, [[ring.from_int(int(x)) for x in row] for row in rows])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, idx: tuple[int, int]):
        i, j = idx
        return self.entries[i][j]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def map_entries(self, fn: Callable, ring: Ring | None = None) -> Matrix:
        return Matrix(ring or self.ring,
                      [[fn(e) for e in row] for row in self.entries],
                      cols=self.cols)

    def to_ring(self, ring: Ring) -> Matrix:
        """Coerce entrywise via the target ring constructor."""
        return self.map_entries(ring.from_int, ring)

    def transpose(self) -> Matrix:
        return Matrix(self.ring,
                      [self.column(j) for j in range(self.cols)],
                      cols=self.rows)

    def conjugate(self) -> Matrix:
        """Entrywise involution t -> t^-1 (Laurent or Q(t) entries)."""
        return self.map_entries(lambda e: e.conjugate())

    def conjugate_transpose(self) -> Matrix:
        return self.conjugate().transpose()

    def __add__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix(self.ring,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)],
                      cols=self.cols)

    def __sub__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix(self.ring,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)],
                      cols=self.cols)

    def __neg__(self) -> Matrix:
        return self.map_entries(lambda e: -e)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            cols = [other.column(j) for j in range(other.cols)]
            out = [[_dot(row, col, self.ring) for col in cols] for row in self.entries]
            return Matrix(self.ring, out, cols=other.cols)
        return self.map_entries(lambda e: e * other)

    def __rmul__(self, other):
        return self.map_entries(lambda e: other * e)

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.rows}x{self.cols}")
        return tuple(_dot(row, v, self.ring) for row in self.entries)

    def _same_shape(self, other: Matrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes differ")

    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        try:
            return self._eliminate(jordan=False)[1]
        except SingularMatrixError:
            return self.ring.zero

    def adjugate(self) -> tuple[Matrix, object]:
        """(adj M, det M) by fraction-free Gauss-Jordan on [M | I].

        The row operations turn [M | I] into [d I | d M^-1] with
        d = +-det M, and d M^-1 = +-adj M.  Raises SingularMatrixError
        when a pivot column is zero.

        Over Z[t,t^-1] it eliminates the integer matrix M(2^B), rows
        shifted to polynomials, with B as in the module docstring: every
        minor of [M | I] has coefficients below 2^(B-2), so the integer
        run is exact, and B grows like n log(n max|coefficient|).

        The trefoil's presentation matrix tA - A^T:

        >>> a = Matrix.from_int_rows(ZZ, [[-1, 1], [0, -1]])
        >>> t = LaurentPoly.t_power(1)
        >>> adj, det = (t * a.to_ring(LAURENT) - a.transpose().to_ring(LAURENT)).adjugate()
        >>> print(adj, det)
        [[-t + 1, -t], [1, -t + 1]] t^2 - t + 1
        """
        if not self.is_square():
            raise ValueError("adjugate of a non-square matrix")
        adj, d = self._eliminate(jordan=True)
        return Matrix(self.ring, adj, cols=self.rows), d

    def _eliminate(self, jordan: bool) -> tuple[list[list], object]:
        """(rows of adj M, det M) by _bareiss on [M | I]; without jordan,
        on M alone, and the adjugate rows are empty."""
        if self.ring is LAURENT:
            return _kronecker_eliminate(self, jordan)
        n = self.rows
        one, zero = self.ring.one, self.ring.zero
        m, sign, d = self._bareiss(
            [list(row) + ([one if i == j else zero for j in range(n)] if jordan else [])
             for i, row in enumerate(self.entries)], jordan)
        if sign > 0:
            return [row[n:] for row in m], d
        return [[-e for e in row[n:]] for row in m], -d

    def _bareiss(self, rows: Sequence[Sequence], jordan: bool):
        """Bareiss (1968) elimination of the square part of [self | extra].

        Clears each pivot column below the pivot, or also above it when
        jordan is set.  After step k every live entry is a (k+1)-minor,
        so each division by the previous pivot is exact in the ring.
        Returns (rows, sign of the row swaps, last pivot).
        """
        n = self.rows
        m = [list(row) for row in rows]
        div = self.ring.exact_div
        sign = 1
        prev = self.ring.one
        for k in range(n):
            piv = next((i for i in range(k, n) if m[i][k]), None)
            if piv is None:
                raise SingularMatrixError(f"matrix is singular: no pivot in column {k}")
            if piv != k:
                m[k], m[piv] = m[piv], m[k]
                sign = -sign
            row_k = m[k]
            pivot = row_k[k]
            for i in range(0 if jordan else k + 1, n):
                if i == k:
                    continue
                row_i = m[i]
                lead = row_i[k]
                # columns <= k go stale: they now hold zeros and, on the
                # diagonal, the pivot, and no later step reads them
                for j in range(k + 1, len(row_k)):
                    row_i[j] = div(pivot * row_i[j] - lead * row_k[j], prev)
            prev = pivot
        return m, sign, prev

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return "[]"
        body = ", ".join("[" + ", ".join(str(e) for e in row) + "]"
                         for row in self.entries)
        return f"[{body}]"


def _kronecker_eliminate(m: Matrix, jordan: bool) -> tuple[list[list], LaurentPoly]:
    """Matrix._eliminate over Z[t,t^-1] through one integer elimination.

    For D = diag(t^s_i) and S = sum s_i, adj(DM) = t^S adj(M) D^-1 and
    det(DM) = t^S det(M) undo the row shifts.
    """
    shifts = [-min((e.val for e in row if e), default=0) for row in m.entries]
    bits = math.prod(1 + sum(abs(c) for e in row for c in e.coeffs)
                     for row in m.entries).bit_length() + 2
    packed = Matrix(ZZ, [[_pack(e, s, bits) for e in row]
                         for row, s in zip(m.entries, shifts)], cols=m.cols)
    adj, d = packed._eliminate(jordan)
    total = sum(shifts)
    return ([[_unpack(x, bits, s - total) for x, s in zip(row, shifts)] for row in adj],
            _unpack(d, bits, -total))


def _pack(e: LaurentPoly, shift: int, bits: int) -> int:
    """The value of t^shift e at t = 2^bits, for t^shift e a polynomial."""
    return sum(c << bits * (e.val + shift + i) for i, c in enumerate(e.coeffs))


def _unpack(x: int, bits: int, val: int) -> LaurentPoly:
    """t^val p for the polynomial p with p(2^bits) = x whose coefficients
    are below 2^(bits-1) in absolute value: the signed base-2^bits digits."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    while x:
        digits.append(((x & mask) ^ half) - half)
        x = (x >> bits) + (digits[-1] < 0)
    return LaurentPoly._of(val, digits)


def _dot(a: Sequence, b: Sequence, ring: Ring):
    total = ring.zero
    for x, y in zip(a, b):
        total = total + x * y
    return total
