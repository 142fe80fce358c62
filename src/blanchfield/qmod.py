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

The canonical form is built only when read (str, repr, hash,
``representative()`` and the four fields), once per instance, by
``from_ratfunc``, which ``canonical_class`` calls eagerly.  It is

  * a "fractional" Laurent polynomial whose rational coefficients all
    lie in [0, 1), and
  * a proper fraction r/q0 with deg r < deg q0, where q0 is a primitive
    integer polynomial with nonzero constant term and positive leading
    coefficient.

The splitting is unique: a proper fraction whose denominator has
nonzero constant term can only be a Laurent polynomial if it is zero,
so two rational functions differ by an integer Laurent polynomial
exactly when they canonicalize identically.

Canonicalization runs in integers up to the output Fractions.  Its
input is reduced, mostly without a gcd (see ``RationalFunction``: Euclid
mod the prime 2^31 - 1 certifies coprimality).  With den = t^m q0, one
pseudo-division d*num = s*q0 + r (d | lc(q0)^k) and, for m > 0, the
series inverse of q0 mod t^m scaled by c = q0(0)^m, which splits
c*r = a*q0 + t^m*b, give x = t^-m (s + a/c)/d + b/(c*d*q0).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _polyops
from .laurent import LaurentPoly, divides, render
from .ratfunc import RationalFunction


class QModLambda:
    """A class in Q(t)/Z[t,t^-1]: a Laurent pair, canonical on demand.

    >>> QModLambda.from_ratfunc(RationalFunction(5))
    QModLambda('0')
    >>> QModLambda.from_ratfunc(RationalFunction((0, 1), (2,)))
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
    def _pair(cls, num: LaurentPoly, den: LaurentPoly, canon=None) -> QModLambda:
        """The class of num/den (den != 0), kept as that pair."""
        out = object.__new__(cls)
        out._num, out._den, out._canon = num, den, canon
        return out

    def _fields(self) -> tuple:
        """(frac_val, frac_coeffs, prop_num, prop_den), built on first use."""
        if self._canon is None:
            x = RationalFunction(self._num, self._den)
            self._canon = QModLambda.from_ratfunc(x)._canon
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

    @classmethod
    def from_ratfunc(cls, x: RationalFunction) -> QModLambda:
        """Canonicalize x + Z[t,t^-1], in integers up to the final Fractions."""
        num, den = x.num, x.den
        # split den = t^m * q0 with q0(0) != 0
        m = next(i for i, c in enumerate(den) if c)
        q0 = den[m:]
        # d*num = s*q0 + r, so x = t^-m * (s + r/q0) / d with deg r < deg q0
        d, s, r = _polyops.pseudo_divmod(num, q0)
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
        return cls._pair(LaurentPoly._of(0, num), LaurentPoly._of(0, den),
                         (lo - m if s else 0, tuple(Fraction(v, d) for v in s), *prop))

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
    if not isinstance(x, RationalFunction):
        x = RationalFunction(x)
    return QModLambda.from_ratfunc(x)
