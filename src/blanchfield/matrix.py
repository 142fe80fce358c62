"""Exact dense linear algebra over Z and Z[t,t^-1].

Determinants and adjugates use fraction-free (Bareiss) elimination, so
no fractions arise over Z or Z[t,t^-1]; callers keep adj/det rather
than an inverse.  Q(t) appears only at output, as the reduced pairs of
``qmod``; no algorithm here runs over it.  Matrices are immutable and
0x0 matrices are legal (the Seifert matrix of the unknot).

Over Z[t,t^-1] the elimination runs on integers (Kronecker
substitution): each row is shifted by a power of t to a polynomial row,
each entry is packed as its value at t = 2^B, the integer matrix is
eliminated, and each result is read back as its signed base-2^B digits
with the shifts undone.  B is the bit length of Hadamard's bound
H = ceil(sqrt(prod_i (1 + sum_j |m_ij|^2))), plus 2, with |p| the
coefficient 1-norm of p and m the shifted M.  Every entry Bareiss forms
is a minor of [m | I], and H bounds its coefficients (Goldstein &
Graham 1974): a coefficient of a polynomial p is the mean of p(t) t^-k
over |t| = 1, so it is at most the maximum of |p| there; at each such t
the minor is the determinant of a submatrix of the complex matrix
[m(t) | I], which Hadamard's inequality bounds by the product of its
rows' 2-norms; each is at most the norm of the whole row i of
[m(t) | I], sqrt(1 + sum_j |m_ij(t)|^2) <= sqrt(1 + sum_j |m_ij|^2),
and the rows the minor leaves out have norm at least 1.  So every
coefficient is below 2^(B-2), an entry vanishes at 2^B only if it is
zero, and its digits give it back: the integer run makes the same pivot
choices and row swaps, raises SingularMatrixError at the same column,
and returns the same (adj, det) as Bareiss over Z[t,t^-1].  As
1 + sum x_j^2 <= (1 + sum x_j)^2, H never exceeds the product of the
row 1-norms prod_i (1 + sum_j |m_ij|), and is near its square root when
a row has many entries of like size.  B grows like
n log(sqrt(n) (d + 1) max|coefficient|) for an n x n matrix whose rows
span d + 1 powers of t, and the integers have at most about (n d + 1) B
bits, so the cost stays polynomial in the input.

Every product of a Laurent matrix with a Laurent vector, m w for
Matrix.mul_vec and Matrix * Matrix (one column at a time) and the
sesquilinear form v^T m w of the pairings, runs through one kernel,
_kronecker_apply, on the same packing.  Packing at t = 2^B is a ring
map from polynomials to integers, so row i of m w is the integer
sum_j m_ij(2^B) w_j(2^B) read back once, and v^T m w is one integer
dot product of the packed v_i with those sums, read back once; only the
rows in v's support are formed.  Every coefficient of the result is at
most X in absolute value, for X = sum_i |v_i| * max_ij |m_ij| * sum_j |w_j|
(|p| the coefficient 1-norm of p, sum_i |v_i| taken as 1 for m w, the
max over the rows read), and signed base-2^B digits hold exactly the
coefficients below 2^(B-1) in absolute value, so B is the bit length of
X plus 1, rounded up to a multiple of 32 so that calls share packed
rows.  Each row is shifted by a power of t and packed lazily, once per
width, in a memo on the matrix.  One pass over each vector reads its
support, 1-norm and shift, each row's shift and largest norm are looked
up once per call, and a w with one nonzero entry (a basis vector) costs
one product per row instead of a sum.  When v and w each have one
nonzero entry, v_i and w_j, as for the value on a pair of generators
(e_i, e_j), v^T m w is the single Laurent product v_i m_ij w_j, formed
with no packing at all; a factor c t^k, such as a generator's 1, scales
and shifts the other.  Otherwise, for an n x n matrix whose rows span
d + 1 powers of t, v^T m w costs at most n^2 + n products of integers of
about (d + 1) B bits and one read-back, with B about log2 X: polynomial
in the input, and big-integer operations in place of n^2 Laurent
products.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

from ._polyops import as_ints
from .laurent import LaurentPoly


class SingularMatrixError(ArithmeticError):
    """Raised when an adjugate meets a singular matrix."""


class Record:
    """An immutable value with the fields named in _fields; records of one
    class with equal fields are equal.  Setting or deleting an attribute
    raises AttributeError; memos in the instance dict stay out of equality."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        vars(self).update(zip(self._fields, values))

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Ring(Record):
    """The little interface the matrix algorithms need from a ring."""

    _fields = ("name", "zero", "one", "from_int", "exact_div")

    def __init__(self, name: str, zero, one, from_int: Callable, exact_div: Callable):
        super().__init__(name, zero, one, from_int, exact_div)

    def __repr__(self) -> str:
        return f"Ring({self.name!r})"


def _int_exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("integer division is not exact")
    return q


ZZ = Ring("Z", 0, 1, int, _int_exact_div)
LAURENT = Ring("Z[t,t^-1]", LaurentPoly.zero(), LaurentPoly.one(),
               LaurentPoly.const, lambda a, b: a.exact_div(b))


class Matrix(Record):
    """An immutable dense matrix over one of the rings above; ring None
    marks a matrix that only holds values for output."""

    _fields = ("ring", "entries", "rows", "cols")

    def __init__(self, ring: Ring, rows: Sequence[Sequence], cols: int | None = None):
        grid = tuple(tuple(row) for row in rows)
        ncols = len(grid[0]) if grid else (0 if cols is None else cols)
        if any(len(r) != ncols for r in grid):
            raise ValueError("ragged rows in matrix")
        super().__init__(ring, grid, len(grid), ncols)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> Matrix:
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)]
                          for i in range(n)], cols=n)

    @classmethod
    def from_int_rows(cls, ring: Ring, rows: Sequence[Sequence[int]]) -> Matrix:
        """TypeError names an entry whose value is not an integer."""
        return cls(ring, [[ring.from_int(x) for x in as_ints(row, "matrix entry")]
                          for row in rows])

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
        """Entrywise involution t -> t^-1 of Laurent entries."""
        return self.map_entries(lambda e: e.conjugate())

    def conjugate_transpose(self) -> Matrix:
        return self.conjugate().transpose()

    def __add__(self, other: Matrix) -> Matrix:
        return self._zip(other, operator.add)

    def __sub__(self, other: Matrix) -> Matrix:
        return self._zip(other, operator.sub)

    def __neg__(self) -> Matrix:
        return self.map_entries(lambda e: -e)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            cols = [self.mul_vec(other.column(j)) for j in range(other.cols)]
            return Matrix(self.ring, [[col[i] for col in cols] for i in range(self.rows)],
                          cols=other.cols)
        return self.map_entries(lambda e: e * other)

    def __rmul__(self, other):
        return self.map_entries(lambda e: other * e)

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.rows}x{self.cols}")
        if self.ring is LAURENT:
            return _kronecker_apply(self, [LaurentPoly.const(e) if isinstance(e, int) else e
                                           for e in v])
        return tuple(sum(map(operator.mul, row, v), self.ring.zero) for row in self.entries)

    def _zip(self, other: Matrix, op: Callable) -> Matrix:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes differ")
        return Matrix(self.ring, [list(map(op, ra, rb))
                                  for ra, rb in zip(self.entries, other.entries)], cols=self.cols)

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
        minor of [M | I] has coefficients below 2^(B-2) by Hadamard's
        inequality on |t| = 1, so the integer run is exact, and B grows
        like n log(sqrt(n) max|coefficient|).

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

    def __repr__(self) -> str:
        return f"Matrix({self})"


def _kronecker_eliminate(m: Matrix, jordan: bool) -> tuple[list[list], LaurentPoly]:
    """Matrix._eliminate over Z[t,t^-1] through one integer elimination.

    For D = diag(t^s_i) and S = sum s_i, adj(DM) = t^S adj(M) D^-1 and
    det(DM) = t^S det(M) undo the row shifts.
    """
    shifts = [_shift(row) for row in m.entries]
    bits = _elimination_width(m)
    packed = Matrix(ZZ, [[_pack(e, s, bits) for e in row]
                         for row, s in zip(m.entries, shifts)], cols=m.cols)
    adj, d = packed._eliminate(jordan)
    total = sum(shifts)
    return ([[_unpack(x, bits, s - total) for x, s in zip(row, shifts)] for row in adj],
            _unpack(d, bits, -total))


def _elimination_width(m: Matrix) -> int:
    """B for the integer elimination of m: the bit length of the ceiling of
    sqrt(prod_i (1 + sum_j |m_ij|^2)), |p| the coefficient 1-norm, plus 2."""
    hadamard = math.prod(1 + sum([_norm(e) ** 2 for e in row]) for row in m.entries)
    return (math.isqrt(hadamard - 1) + 1).bit_length() + 2


def _pack(e: LaurentPoly, shift: int, bits: int) -> int:
    """The value of t^shift e at t = 2^bits, for t^shift e a polynomial."""
    x = 0
    for c in reversed(e.coeffs):
        x = (x << bits) + c
    return x << bits * (e.val + shift) if x else 0


def _unpack(x: int, bits: int, val: int) -> LaurentPoly:
    """t^val p for the polynomial p with p(2^bits) = x whose coefficients
    are below 2^(bits-1) in absolute value: the signed base-2^bits digits."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    while x:
        digits.append(((x & mask) ^ half) - half)
        x = (x >> bits) + (digits[-1] < 0)
    return LaurentPoly._of(val, digits)


def _kronecker_apply(m: Matrix, w: Sequence, v: Sequence | None = None):
    """m w over Z[t,t^-1] as a tuple, or with v the polynomial v^T m w.

    One pass over each vector reads its support, coefficient 1-norm and
    shift, and only the rows in v's support are read.  The memo
    vars(m)["_packed"] keeps each row's shift and largest entry 1-norm
    under its index i, looked up once per call, and the row packed at
    width B under (i, B), so each row is packed once per width.  When w
    has one nonzero entry, each row contributes one product, not a sum;
    when v has one too, the result is the Laurent product v_i m_ij w_j,
    and nothing is packed or read back.
    """
    cols, w_norm, w_shift = _support(w)
    rows, v_norm, v_shift = (range(m.rows), 1, 0) if v is None else _support(v)
    if v is not None and len(rows) == len(cols) == 1:  # a generator pair: no packing
        (i,), (j,) = rows, cols
        return _times(_times(v[i], m.entries[i][j]), w[j])
    memo = vars(m).setdefault("_packed", {})
    shifts, top_norm = [], 0
    for i in rows:
        row_shift, row_norm = memo.get(i) or memo.setdefault(
            i, (_shift(m.entries[i]), max(map(_norm, m.entries[i]), default=0)))
        shifts.append(row_shift)
        top_norm = max(top_norm, row_norm)
    bits = ((top_norm * w_norm * v_norm).bit_length() + 32) // 32 * 32
    packed = []
    for i, row_shift in zip(rows, shifts):
        row = memo.get((i, bits))
        if row is None:
            row = memo[i, bits] = [_pack(e, row_shift, bits) for e in m.entries[i]]
        packed.append(row)
    xs = [(j, _pack(w[j], w_shift, bits)) for j in cols]
    if len(xs) == 1:  # no generator sum for a basis vector or a multiple of one
        ((j, x),) = xs
        sums = [row[j] * x for row in packed]
    else:
        sums = [sum([row[j] * x for j, x in xs]) for row in packed]
    if v is None:
        return tuple([_unpack(x, bits, -s - w_shift) for x, s in zip(sums, shifts)])
    top = max(shifts, default=0)
    total = sum([_pack(v[i], v_shift + top - s, bits) * x
                 for i, s, x in zip(rows, shifts, sums)])
    return _unpack(total, bits, -v_shift - top - w_shift)


def _times(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a b, as a scaled shift of the other factor when one is a monomial c t^k."""
    if len(a.coeffs) > len(b.coeffs):
        a, b = b, a
    if len(a.coeffs) != 1:
        return a * b if a.coeffs else a
    (c,) = a.coeffs
    return LaurentPoly._of(a.val + b.val, b.coeffs if c == 1 else [c * x for x in b.coeffs])


def _support(vec: Sequence) -> tuple[list[int], int, int]:
    """(indices of the nonzero entries, sum of their 1-norms, _shift(vec))."""
    idx, norm, low = [], 0, 0
    for i, e in enumerate(vec):
        if e.coeffs:
            if not idx or e.val < low:
                low = e.val
            idx.append(i)
            norm += sum(map(abs, e.coeffs))
    return idx, norm, -low


def _shift(polys) -> int:
    """The least k with t^k p a polynomial for every p in polys."""
    return -min([p.val for p in polys if p.coeffs], default=0)


def _norm(p: LaurentPoly) -> int:
    return sum(map(abs, p.coeffs))
