"""The fraction field Q(t), stored as reduced pairs of integer polynomials."""

from __future__ import annotations

from math import gcd

from . import _polyops
from .laurent import LaurentPoly


def _coerce_poly(x) -> tuple[tuple[int, ...], int]:
    """Return (coefficient tuple, power of t to clear) for the input.

    Accepts ints, integer coefficient sequences and LaurentPoly values;
    a Laurent polynomial with negative valuation contributes the t-power
    needed to make it an honest polynomial.  A coefficient that is not
    an integer raises TypeError.
    """
    if isinstance(x, LaurentPoly):
        if x.val >= 0:
            return _polyops.shift(x.coeffs, x.val), 0
        return tuple(x.coeffs), -x.val
    if isinstance(x, int):
        return _polyops.trim((x,)), 0
    return _polyops.trim(_polyops.as_ints(x)), 0


class RationalFunction:
    """An element of Q(t) in canonical form.

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
        """
        n, kn = _coerce_poly(num)
        d, kd = _coerce_poly(den)
        # the pending t-powers cancel across the fraction bar
        if kn > kd:
            d = _polyops.shift(d, kn - kd)
        elif kd > kn:
            n = _polyops.shift(n, kd - kn)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if not n:
            self.num, self.den = (), (1,)
            return
        if not _polyops.certify_coprime(d, n):
            g = _polyops.gcd_poly(n, d)
            if len(g) > 1:
                n = _polyops.div_exact(n, g)
                d = _polyops.div_exact(d, g)
        c = gcd(_polyops.content(n), _polyops.content(d))
        if c > 1:
            n = tuple(v // c for v in n)
            d = tuple(v // c for v in d)
        if d[-1] < 0:
            n, d = _polyops.neg(n), _polyops.neg(d)
        self.num = n
        self.den = d

    @classmethod
    def zero(cls) -> RationalFunction:
        return cls(0)

    @classmethod
    def one(cls) -> RationalFunction:
        return cls(1)

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

    def __add__(self, other) -> RationalFunction:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        n = _polyops.add(_polyops.mul(self.num, other.den),
                         _polyops.mul(other.num, self.den))
        return RationalFunction(n, _polyops.mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        out = object.__new__(RationalFunction)
        out.num = _polyops.neg(self.num)
        out.den = self.den
        return out

    def __sub__(self, other) -> RationalFunction:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RationalFunction:
        return (-self) + other

    def __mul__(self, other) -> RationalFunction:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(_polyops.mul(self.num, other.num),
                                _polyops.mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> RationalFunction:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(_polyops.mul(self.num, other.den),
                                _polyops.mul(self.den, other.num))

    def __rtruediv__(self, other) -> RationalFunction:
        return _as_ratfunc(other) / self

    def conjugate(self) -> RationalFunction:
        """Apply the involution t -> t^-1 of Q(t)."""
        if self.is_zero():
            return self
        dn, dd = len(self.num) - 1, len(self.den) - 1
        n = tuple(reversed(self.num))
        d = tuple(reversed(self.den))
        if dd > dn:
            n = _polyops.shift(n, dd - dn)
        elif dn > dd:
            d = _polyops.shift(d, dn - dd)
        return RationalFunction(n, d)

    def is_laurent(self) -> bool:
        """Membership test for the subring Z[t, t^-1].

        In canonical form x lies in Z[t, t^-1] exactly when the reduced
        denominator is a power of t with coefficient one.
        """
        return self.den[-1] == 1 and not any(self.den[:-1])

    def to_laurent(self) -> LaurentPoly:
        if not self.is_laurent():
            raise ArithmeticError(f"{self} is not a Laurent polynomial")
        return LaurentPoly(-(len(self.den) - 1), self.num)

    def __str__(self) -> str:
        num = LaurentPoly(0, self.num)
        if self.den == (1,):
            return str(num)
        return f"({num})/({LaurentPoly(0, self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction('{self}')"


def _as_ratfunc(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return RationalFunction(x)
    return NotImplemented
