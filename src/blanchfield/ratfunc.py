"""Values in Q(t) written down as reduced pairs of integer polynomials.

No algorithm runs over Q(t), so a RationalFunction has no arithmetic: it
is the reduced form that canonicalization (``qmod``) and output read.
"""

from __future__ import annotations

from math import gcd

from . import _polyops
from .laurent import LaurentPoly


def _coerce_poly(x) -> tuple[tuple[int, ...], int]:
    """Return (coefficient tuple c, k) with x = t^k c(t).

    Accepts ints, integer coefficient sequences (k = 0) and LaurentPoly
    values (k its valuation).  A coefficient that is not an integer
    raises TypeError.
    """
    if isinstance(x, LaurentPoly):
        return x.coeffs, x.val
    if isinstance(x, int):
        return _polyops.trim((x,)), 0
    return _polyops.trim(_polyops.as_ints(x)), 0


def _low(coeffs) -> int:
    """The exponent of the lowest nonzero coefficient."""
    return next(i for i, c in enumerate(coeffs) if c)


class RationalFunction:
    """An element of Q(t) as a reduced pair num/den.

    The numerator and denominator are integer polynomials (dense
    coefficient tuples) with gcd 1 over the rationals, coprime integer
    contents, and positive leading denominator coefficient, so equality
    of values is equality of representations.

    >>> RationalFunction(LaurentPoly.parse('t^2 - 1'), LaurentPoly.parse('t - 1'))
    RationalFunction('t + 1')
    """

    num: tuple[int, ...]
    den: tuple[int, ...]

    def __init__(self, num=0, den=1):
        """num/den in canonical form; the gcd runs only when a certificate fails.

        ``_polyops.certify_coprime`` runs Euclid mod the prime P = 2^31 - 1.
        A constant gcd there, with P not dividing lc(den), proves the gcd
        over Z constant: its leading coefficient divides lc(den), so it
        keeps its degree mod P, and it divides the gcd mod P.

        The power of t is decided on its own: a polynomial with nonzero
        constant term is prime to t, so once the common power of t is
        cancelled, gcd(num, t^m q0) = gcd(num, q0) for den = t^m q0 with
        q0(0) != 0, and Euclid runs against q0 only, not against m
        leading zeros (m up to 2 MAX_EXPONENT for a pairing value).
        """
        n, kn = _coerce_poly(num)
        d, kd = _coerce_poly(den)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if not n:
            self.num, self.den = (), (1,)
            return
        # num/den = t^e n0/q0 with n0(0), q0(0) != 0
        zn, zd = _low(n), _low(d)
        e, n, d = kn - kd + zn - zd, n[zn:], d[zd:]
        if not _polyops.certify_coprime(d, n):
            g = _polyops.gcd_poly(n, d)
            if len(g) > 1:
                n = _polyops.div_exact(n, g)
                d = _polyops.div_exact(d, g)
        n, d = (_polyops.shift(n, e), d) if e >= 0 else (n, _polyops.shift(d, -e))
        c = gcd(_polyops.content(n), _polyops.content(d))
        if c > 1:
            n = tuple(v // c for v in n)
            d = tuple(v // c for v in d)
        if d[-1] < 0:
            n, d = _polyops.neg(n), _polyops.neg(d)
        self.num = n
        self.den = d

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def is_laurent(self) -> bool:
        """Membership test for the subring Z[t, t^-1].

        In canonical form x lies in Z[t, t^-1] exactly when the reduced
        denominator is a power of t with coefficient one.
        """
        return self.den[-1] == 1 and not any(self.den[:-1])

    def __str__(self) -> str:
        num = LaurentPoly(0, self.num)
        if self.den == (1,):
            return str(num)
        return f"({num})/({LaurentPoly(0, self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction('{self}')"

