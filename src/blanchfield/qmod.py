"""Pairing values: classes in the quotient module Q(t) / Z[t, t^-1].

A class is held as a pair num/den over Lambda = Z[t, t^-1], den != 0, as
a pairing produces it (v^T N conj(w) over det P); the pair is neither
reduced nor unique.  Equality takes one exact division: Lambda is a UFD,
in particular a domain with fraction field Q(t), so a/b lies in Lambda
exactly when b divides a there.  Hence n/d is zero exactly when d | n,
and n1/d1 = n2/d2 exactly when d1*d2 | n1*d2 - n2*d1, or d2 | u*n1 - n2
when d2 = u*d1 for a unit u = +-t^k (a shared d, or a symmetric d and its
conjugate); as t is a unit, that is integer long division of coefficient
tuples.  Sums, negation, conjugation and scaling are pair arithmetic too,
so checking a pairing's properties reduces no fraction.

No algorithm runs over Q(t) either: a RationalFunction is only a reduced
pair with no arithmetic, for output.  One reduction, ``_reduce``, serves
it and the canonical form, from the pair's own Laurent polynomials.

The canonical form is built only when read (str, repr, hash,
``representative()`` and the four fields), once per instance, by
``_canonical``, which ``canonical_class`` calls eagerly.  It is

  * a "fractional" Laurent polynomial whose rational coefficients all
    lie in [0, 1), and
  * a proper fraction r/q0 with deg r < deg q0, where q0 is a primitive
    integer polynomial with nonzero constant term and positive leading
    coefficient.

The splitting is unique: a proper fraction whose denominator has
nonzero constant term can only be a Laurent polynomial if it is zero,
so two rational functions differ by an integer Laurent polynomial
exactly when they canonicalize identically.

Canonicalization runs in integers up to the output Fractions.  With the
reduced x = n/(t^m q0), one pseudo-division d*n = s*q0 + r
(d | lc(q0)^k) and, for m > 0, the series inverse of q0 mod t^m scaled
by c = q0(0)^m, which splits c*r = a*q0 + t^m*b, give
x = t^-m (s + a/c)/d + b/(c*d*q0).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _polyops
from .laurent import LaurentPoly, divides, render


def _as_laurent(x) -> LaurentPoly:
    """An int, integer coefficient sequence or LaurentPoly as a LaurentPoly;
    a coefficient that is not an integer raises TypeError."""
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly(0, (x,) if isinstance(x, int) else x)


def _reduce(num: LaurentPoly, den: LaurentPoly) -> tuple[int, tuple, tuple]:
    """(e, n, q) with num/den = t^e n/q in lowest terms: n and q integer
    polynomials with nonzero constant terms (or n = (), q = (1,)), gcd 1
    over Q, coprime contents and lc(q) > 0.

    The power of t is read off the valuations, as the coefficient tuples
    have nonzero ends: a polynomial with nonzero constant term is prime
    to t, so Euclid never runs against the leading zeros of t^m q (m up
    to 2 MAX_EXPONENT for a pairing value).  The gcd runs only when
    ``_polyops.certify_coprime`` fails.  That certificate runs Euclid mod
    the prime P = 2^31 - 1; a constant gcd there, with P not dividing
    lc(q), proves the gcd over Z constant: its leading coefficient
    divides lc(q), so it keeps its degree mod P, and it divides the gcd
    mod P.
    """
    n, q = num.coeffs, den.coeffs
    if not q:
        raise ZeroDivisionError("rational function with zero denominator")
    if not n:
        return 0, (), (1,)
    if not _polyops.certify_coprime(q, n):
        g = _polyops.gcd_poly(n, q)
        if len(g) > 1:
            n, q = _polyops.div_exact(n, g), _polyops.div_exact(q, g)
    c = gcd(_polyops.content(n), _polyops.content(q))
    if c > 1:
        n, q = tuple(v // c for v in n), tuple(v // c for v in q)
    if q[-1] < 0:
        n, q = _polyops.neg(n), _polyops.neg(q)
    return num.val - den.val, n, q


class RationalFunction:
    """An element of Q(t) as a reduced pair num/den.

    The numerator and denominator are integer polynomials (dense
    coefficient tuples) with gcd 1 over the rationals, coprime integer
    contents, and positive leading denominator coefficient, so equality
    of values is equality of representations.  Each of num and den may
    be given as an int, an integer sequence or a LaurentPoly.

    >>> RationalFunction(LaurentPoly.parse('t^2 - 1'), LaurentPoly.parse('t - 1'))
    RationalFunction('t + 1')
    """

    num: tuple[int, ...]
    den: tuple[int, ...]

    def __init__(self, num=0, den=1):
        e, n, q = _reduce(_as_laurent(num), _as_laurent(den))
        self.num, self.den = (_polyops.shift(n, e), q) if e >= 0 else (n, _polyops.shift(q, -e))

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


def _canonical(num: LaurentPoly, den: LaurentPoly) -> tuple:
    """The canonical fields of num/den + Z[t,t^-1], in integers up to the
    final Fractions."""
    e, n, q0 = _reduce(num, den)
    # x = t^-m * n/q0 with n a polynomial and q0(0) != 0
    m = max(0, -e)
    n = _polyops.shift(n, e + m)
    # d*n = s*q0 + r, so x = t^-m * (s + r/q0) / d with deg r < deg q0
    d, s, r = _polyops.pseudo_divmod(n, q0)
    if r and m:
        # c*r = a*q0 + t^m*b with c = q0(0)^m and deg a < m splits
        # r/(t^m q0) = (a/t^m + b/q0) / c
        c = q0[0] ** m
        a = _polyops.trim(_polyops.mul(r, _polyops.scaled_series_inverse(q0, m))[:m])
        rest = _polyops.sub(_polyops.scale(r, c), _polyops.mul(a, q0))
        assert not any(rest[:m]), "partial fraction split failed"
        s, r, d = _polyops.add(_polyops.scale(s, c), a), rest[m:], d * c
    # x = t^-m * s/d + r/(d*q0); reduce the Laurent coefficients into
    # [0, 1): v % d takes the sign of d, so (v % d)/d = v/d - floor(v/d)
    s = [v % d for v in s]
    lo = next((i for i, v in enumerate(s) if v), len(s))
    s = _polyops.trim(s[lo:])
    # scale so the denominator of the proper part is primitive over Z
    k = _polyops.content(q0)
    prop = ((tuple(Fraction(v, d * k) for v in r), tuple(v // k for v in q0))
            if r else ((), (1,)))
    return (lo - m if s else 0, tuple(Fraction(v, d) for v in s), *prop)


class QModLambda:
    """A class in Q(t)/Z[t,t^-1]: a Laurent pair, canonical on demand.

    >>> canonical_class(5)
    QModLambda('0')
    >>> canonical_class(RationalFunction((0, 1), (2,)))
    QModLambda('(1/2)t')
    >>> x = canonical_class(RationalFunction(1, LaurentPoly(0, (-1, 1))))
    >>> x * LaurentPoly(1, (1,)) == x       # t/(t - 1) = 1 + 1/(t - 1)
    True
    """

    __slots__ = ("_num", "_den", "_canon")

    def __init__(self, frac_val: int, frac_coeffs: tuple[Fraction, ...],
                 prop_num: tuple[Fraction, ...], prop_den: tuple[int, ...]):
        """The class with these canonical fields, paired as its representative
        over the common denominator d of all coefficients."""
        frac_coeffs, prop_num = tuple(frac_coeffs), tuple(prop_num)
        self._canon = (frac_val, frac_coeffs, prop_num, tuple(prop_den))
        d = lcm(*(c.denominator for c in frac_coeffs + prop_num))
        frac, prop = ([c.numerator * (d // c.denominator) for c in cs]
                      for cs in (frac_coeffs, prop_num))
        q0 = LaurentPoly(0, prop_den)
        self._num = LaurentPoly(frac_val, frac) * q0 + LaurentPoly(0, prop)
        self._den = q0 * d

    @classmethod
    def _pair(cls, num: LaurentPoly, den: LaurentPoly) -> QModLambda:
        """The class of num/den (den != 0), kept as that pair."""
        out = object.__new__(cls)
        out._num, out._den, out._canon = num, den, None
        return out

    def _fields(self) -> tuple:
        """(frac_val, frac_coeffs, prop_num, prop_den), built on first use."""
        if self._canon is None:
            self._canon = _canonical(self._num, self._den)
        return self._canon

    frac_val = property(lambda self: self._fields()[0])
    frac_coeffs = property(lambda self: self._fields()[1])
    prop_num = property(lambda self: self._fields()[2])
    prop_den = property(lambda self: self._fields()[3])

    @classmethod
    def zero(cls) -> QModLambda:
        return cls(0, (), (), (1,))

    def is_zero(self) -> bool:
        return divides(self._den, self._num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, QModLambda):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self) -> int:
        return hash(self._fields())

    def representative(self) -> RationalFunction:
        """A rational function in this class (the canonical one)."""
        canonical = QModLambda(*self._fields())
        return RationalFunction(canonical._num, canonical._den)

    def conjugate(self) -> QModLambda:
        """Involution t -> t^-1 on the quotient module."""
        return QModLambda._pair(self._num.conjugate(), self._den.conjugate())

    def __add__(self, other: QModLambda) -> QModLambda:
        if not isinstance(other, QModLambda):
            return NotImplemented
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        if d1 == d2:
            return QModLambda._pair(n1 + n2, d1)
        if d1.is_unit_multiple_of(d2):
            # d2 = +-t^k d1, so n1/d1 = +-t^k n1 / d2
            signed = n1.coeffs if d1.coeffs == d2.coeffs else _polyops.neg(n1.coeffs)
            n1 = LaurentPoly._of(n1.val + d2.val - d1.val, signed)
            return QModLambda._pair(n1 + n2, d2)
        return QModLambda._pair(n1 * d2 + n2 * d1, d1 * d2)

    def __neg__(self) -> QModLambda:
        return QModLambda._pair(-self._num, self._den)

    def __sub__(self, other: QModLambda) -> QModLambda:
        if not isinstance(other, QModLambda):
            return NotImplemented
        return self + (-other)

    def __mul__(self, p) -> QModLambda:
        """Scale by a ring element (Laurent polynomial or int)."""
        if isinstance(p, (int, LaurentPoly)):
            return QModLambda._pair(self._num * p, self._den)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        frac_val, frac_coeffs, prop_num, prop_den = self._fields()
        if not frac_coeffs and not prop_num:
            return "0"
        parts: list[str] = []
        if frac_coeffs:
            parts.append(render(frac_val, frac_coeffs))
        if prop_num:
            parts.append(f"({render(0, prop_num)})/({render(0, prop_den)})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"QModLambda('{self}')"


def canonical_class(x: RationalFunction | LaurentPoly | int) -> QModLambda:
    """Canonical form of x + Z[t,t^-1]; the main entry point."""
    num, den = (x.num, x.den) if isinstance(x, RationalFunction) else (x, 1)
    out = QModLambda._pair(_as_laurent(num), _as_laurent(den))
    out._fields()
    return out
