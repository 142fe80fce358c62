"""Alexander polynomials and exact Levine-Tristram signatures.

The Alexander polynomial is det(tA - A^T), read off the data object's
cached elimination (tA - A^T is nonsingular, as det(A - A^T) = 1), and
normalized by a unit so that Delta(t) = Delta(1/t) and Delta(1) = 1.

Signatures are exact, and one evaluator serves both hermitian Laurent
matrices: the Levine-Tristram form (1 - t)A + (1 - t^-1)A^T, entrywise
-a_ji t^-1 + (a_ij + a_ji) - a_ij t, and M_K.  A point z = e^(i theta)
!= 1 of the unit circle is named by its slope s = tan(theta/2); z and
conj(z) carry complex conjugate forms, so only |s| in (0, inf] matters,
with s = inf at z = -1.  For s = p/q (q = 0 at z = -1),

    z = u/c,  u = q^2 - p^2 + 2ipq,  c = p^2 + q^2 > 0,

so c^D M(z), with D the largest |exponent| in M, is a Gaussian-integer
hermitian matrix with the signature of M(z).  For the Levine-Tristram
form it is 2p H, H = p(A + A^T) + iq(A^T - A).

The form is singular exactly where Delta(z) = 0.  Write det(tA - A^T) =
t^val P(t), P palindromic of degree d; then
E(s) = P((1 + is)/(1 - is)) (1 - is)^d is a real, even integer polynomial
F(s^2) of degree at most d, whose positive roots are the slopes of the
Alexander roots on the circle.  Sturm sequences (Sturm 1829) of the
square-free part of F isolate those roots in disjoint rational
intervals, once per SeifertData (and once per MKForm, from det M_K, a
unit multiple of Delta: the same arcs).  The signature is constant on
each arc between two roots, so it is computed once per arc, at the
interval end next to it or at z = -1, by Sylvester's law of inertia:
fraction-free symmetric elimination of the real 2n x 2n embedding of
c^D M(z).  signature_arcs lists both step functions arc by arc, which is
how verify compares sign(M_K) with Levine-Tristram on the whole circle.

A float z is read exactly: s = Im z / (1 + Re z), or (1 - Re z) / Im z
for Re z < 0 (the same number on the circle, without the cancellation
near -1).  The float stands for every point within its precision, so
the signature is indeterminate, IndeterminateSignatureError, exactly
when a root of E lies in the window [s/(1 + 2^-40), s(1 + 2^-40)].  The
arc of s is found by narrowing only the root intervals that the window
touches.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _polyops
from .laurent import LaurentPoly
from .pairing import SeifertData

if TYPE_CHECKING:  # in annotations only: alexander and signatures run without mkform
    from .mkform import MKForm

UNIT_CIRCLE_TOL = 1e-9
SLOPE_WINDOW = Fraction(1, 2**40)  # relative input precision of a float z
_NEAR_ROOT = "an Alexander root lies within relative 2^-40 of the slope of z"


class IndeterminateSignatureError(ArithmeticError):
    """An Alexander root lies within the input precision of the requested point."""


def alexander_polynomial(data: SeifertData) -> LaurentPoly:
    """det(tA - A^T), normalized so Delta(t) = Delta(1/t) and Delta(1) = 1."""
    det = data.determinant()
    if det.coeffs != tuple(reversed(det.coeffs)):
        raise ArithmeticError("det(tA - A^T) is not palindromic; invalid input")
    center = det.val + det.degree()
    if center % 2:
        raise ArithmeticError("cannot center det(tA - A^T) by a unit")
    delta = det * LaurentPoly.t_power(-(center // 2))
    at_one = sum(delta.coeffs)
    if abs(at_one) != 1:
        raise ArithmeticError(f"Delta(1) = {at_one}, expected +-1")
    return delta if at_one == 1 else -delta


def _check_circle_point(z: complex) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z = {z} is not a finite complex number")
    if abs(abs(z) - 1) > UNIT_CIRCLE_TOL:
        raise ValueError(f"z = {z} does not lie on the unit circle")
    if z == 1:
        raise ValueError("z = 1 is excluded")
    return z


def _slope(z: complex) -> Fraction | None:
    """|tan(theta/2)| for z = e^(i theta), read exactly off the floats of z;
    None (infinity) at z = -1."""
    re, im = Fraction(z.real), Fraction(z.imag)
    if re >= 0:
        return abs(im / (1 + re))
    return abs((1 - re) / im) if im else None


def _circle_polynomial(p: tuple) -> tuple:
    """F with P((1 + is)/(1 - is)) (1 - is)^d = F(s^2), d = deg P, for a
    palindromic integer polynomial P: the coefficient of s^2m is
    (-1)^m sum_k p_k sum_j (-1)^j C(k, j) C(d - k, 2m - j)."""
    if p != p[::-1]:
        raise ArithmeticError(f"{p} is not palindromic; no real slope polynomial")
    d = len(p) - 1
    return _polyops.trim(tuple(
        (-1) ** m * sum(c * sum((-1) ** j * math.comb(k, j) * math.comb(d - k, 2 * m - j)
                                for j in range(min(k, 2 * m) + 1))
                        for k, c in enumerate(p))
        for m in range(d // 2 + 1)))


def _inertia(m) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric integer matrix.

    Symmetric fraction-free (Bareiss) elimination with diagonal pivots:
    the k-th pivot D_k is a leading principal minor after a symmetric
    permutation, and contributes sign(D_k / D_(k-1)) (Sylvester's law of
    inertia).  When every remaining diagonal entry is 0 but some m_ij is
    not, the unimodular congruence row_i += row_j, col_i += col_j puts
    2 m_ij on the diagonal; an all-zero remainder is the kernel.

    >>> _inertia([]), _inertia([[0, 1], [1, 0]]), _inertia([[2, 2], [2, 2]])
    ((0, 0, 0), (1, 1, 0), (1, 0, 1))
    """
    m = [list(row) for row in m]
    n = len(m)
    pos = neg = 0
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j]),
                        None)
            if pair is None:
                return pos, neg, n - k
            piv, j = pair
            for c in range(k, n):
                m[piv][c] += m[j][c]
            for r in range(k, n):
                m[r][piv] += m[r][j]
        m[k], m[piv] = m[piv], m[k]
        for row in m:
            row[k], row[piv] = row[piv], row[k]
        d, top = m[k][k], m[k]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            row, mik = m[i], m[i][k]
            for j in range(i, n):
                row[j] = m[j][i] = (d * row[j] - mik * top[j]) // prev
        prev = d
    return pos, neg, 0


def _embed(re, im) -> list[list[int]]:
    """The real symmetric matrix [[Re, -Im], [Im, Re]] of the hermitian
    Re + i Im; it has every eigenvalue of Re + i Im twice."""
    return ([r + [-x for x in i] for r, i in zip(re, im)]
            + [i + r for r, i in zip(re, im)])


def _form_at(entries, p: int, q: int) -> list[list[int]]:
    """Embedded c^D M(u/c), u = q^2 - p^2 + 2ipq, c = p^2 + q^2, for the
    hermitian Laurent matrix M with rows entries and D the largest
    |exponent| in M; t^-k is conj(u)^k / c^k on the circle."""
    c = p * p + q * q
    top = max((max(-e.val, e.degree()) for row in entries for e in row if e), default=0)
    powers = [(1, 0)]
    for _ in range(top):
        x, y = powers[-1]
        powers.append((x * (q * q - p * p) - y * 2 * p * q, x * 2 * p * q + y * (q * q - p * p)))
    re = [[0] * len(row) for row in entries]
    im = [[0] * len(row) for row in entries]
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            for k, a in enumerate(e.coeffs, e.val):
                x, y = powers[abs(k)]
                w = a * c ** (top - abs(k))
                re[i][j] += w * x
                im[i][j] += w * y if k >= 0 else -w * y
    return _embed(re, im)


class _SignatureSteps:
    """A signature as a step function of the slope s in (0, inf].

    jumps is a Laurent polynomial vanishing on the circle exactly where
    the hermitian Laurent matrix with rows entries is singular.
    """

    def __init__(self, jumps: LaurentPoly, entries):
        f = _circle_polynomial(jumps.coeffs)
        common = _polyops.gcd_poly(f, _polyops.derivative(f))
        self._f = f = _polyops.div_exact(f, common) if len(common) > 1 else f
        self._entries = entries
        self._values: dict[int, int] = {}
        chain = _polyops.sturm_chain(f)

        def changes(s: Fraction) -> int:
            signs = [x for x in (self._sign(g, s) for g in chain) if x]
            return sum(a != b for a, b in zip(signs, signs[1:]))

        # Cauchy's bound: every root x of f has |x| < 1 + max |f_k / lc(f)|
        hi = Fraction(math.isqrt(2 + max(map(abs, f[:-1]), default=0) // abs(f[-1])) + 1)
        stack, roots = [(Fraction(0), hi, changes(Fraction(0)), changes(hi))], []
        while stack:
            lo, hi, vlo, vhi = stack.pop()
            if vlo - vhi == 1:
                roots.append([lo, hi])
            elif vlo > vhi:
                mid = self._split(lo, hi)
                vmid = changes(mid)
                stack += [(mid, hi, vmid, vhi), (lo, mid, vlo, vmid)]
        if roots:
            while not roots[0][0]:
                self._narrow(roots[0], self._split(*roots[0]))
        # one root in each open interval, none at an end; arc k (below the
        # k-th root) takes its sample at the interval's lower end, the last
        # arc at z = -1
        self._roots = roots
        self._samples = [lo for lo, _ in roots] + [None]

    @staticmethod
    def _sign(g, s: Fraction) -> int:
        return _polyops.sign_at(g, s.numerator ** 2, s.denominator ** 2)

    def _split(self, lo: Fraction, hi: Fraction) -> Fraction:
        """A point of (lo, hi) that is not a root."""
        mid = (lo + hi) / 2
        while not self._sign(self._f, mid):
            mid = (lo + mid) / 2
        return mid

    def _narrow(self, interval: list, w: Fraction) -> None:
        """Keep the side of w (inside interval, not a root) holding the root."""
        if self._sign(self._f, w) == self._sign(self._f, interval[0]):
            interval[0] = w
        else:
            interval[1] = w

    def _arc(self, s: Fraction | None) -> int:
        """Number of roots below s; raises when one lies in the window of s."""
        if s is None:
            return len(self._roots)
        window = (s / (1 + SLOPE_WINDOW), s * (1 + SLOPE_WINDOW))
        below = 0
        for interval in self._roots:
            for w in window:
                if interval[0] < w < interval[1]:
                    if not self._sign(self._f, w):
                        raise IndeterminateSignatureError(_NEAR_ROOT)
                    self._narrow(interval, w)
            if interval[1] <= window[0]:
                below += 1
            elif interval[0] < window[1]:
                raise IndeterminateSignatureError(_NEAR_ROOT)
            else:
                break
        return below

    def at(self, s: Fraction | None) -> int:
        """The signature at slope s (None for z = -1)."""
        return self._value(self._arc(s))

    def arcs(self) -> list[int]:
        """The signature on each arc, from z = 1 to z = -1."""
        return [self._value(arc) for arc in range(len(self._samples))]

    def _value(self, arc: int) -> int:
        if arc not in self._values:
            sample = self._samples[arc]
            p, q = (1, 0) if sample is None else (sample.numerator, sample.denominator)
            pos, neg, zero = _inertia(_form_at(self._entries, p, q))
            if zero:
                raise AssertionError("form singular away from the Alexander roots")
            self._values[arc] = (pos - neg) // 2
        return self._values[arc]


def _steps(owner: SeifertData | MKForm) -> _SignatureSteps:
    """The step function of the Levine-Tristram form of a SeifertData,
    (1 - t)A + (1 - t^-1)A^T, or of an MKForm's M_K; kept on owner,
    built on first use."""
    steps = vars(owner).get("_signature_steps")
    if steps is None:
        if isinstance(owner, SeifertData):
            a = owner.matrix.entries
            entries = [[LaurentPoly._of(-1, (-a[j][i], a[i][j] + a[j][i], -a[i][j]))
                        for j in range(len(a))] for i in range(len(a))]
        else:
            entries = owner.mk.entries
        steps = vars(owner)["_signature_steps"] = _SignatureSteps(owner.determinant(), entries)
    return steps


def levine_tristram_signature(data: SeifertData, z: complex) -> int:
    """Signature of (1-z)A + (1-conj(z))A^T at a unit-circle point z != 1."""
    return _steps(data).at(_slope(_check_circle_point(z)))


def mk_signature(form: MKForm, z: complex) -> int:
    """Signature of the hermitian matrix M_K(z)."""
    return _steps(form).at(_slope(_check_circle_point(z)))


def signature_arcs(data: SeifertData, form: MKForm) -> tuple[list[int], list[int]]:
    """Levine-Tristram signatures and those of M_K on each arc, from z = 1
    to z = -1.  The arcs are the same when det M_K is a unit multiple of
    Delta."""
    return _steps(data).arcs(), _steps(form).arcs()


def signature_profile(data: SeifertData,
                      samples: int) -> tuple[tuple[float, int | None], ...]:
    """Levine-Tristram signatures at z = exp(i pi j/(samples+1)), j = 1..samples.

    Indeterminate sample points (Alexander roots on the circle) are
    reported with value None rather than aborting the sweep.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    out: list[tuple[float, int | None]] = []
    for j in range(1, samples + 1):
        theta = math.pi * j / (samples + 1)
        z = cmath.exp(1j * theta)
        try:
            out.append((theta, levine_tristram_signature(data, z)))
        except IndeterminateSignatureError:
            out.append((theta, None))
    return tuple(out)
