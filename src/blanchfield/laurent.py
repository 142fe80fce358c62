"""Integer Laurent polynomials Z[t, t^-1] with the involution t -> t^-1."""

from __future__ import annotations

import re
from typing import Sequence

from . import _polyops

# the largest |exponent| parse accepts: for a non-monic Delta the canonical
# class of t^k grows as k^2, so a short input could ask for unbounded work
MAX_EXPONENT = 1000


class LaurentPoly:
    """A Laurent polynomial over the integers.

    Stored as a valuation plus a dense coefficient tuple starting at
    the valuation power; the ends of the tuple are nonzero.  The zero
    polynomial is the empty tuple with valuation 0, so equal values
    always have identical representations.

    >>> LaurentPoly(0, (1, 1)) * LaurentPoly(-1, (1,))
    LaurentPoly('1 + t^-1')
    >>> LaurentPoly(0, (-1, 1)).conjugate()
    LaurentPoly('-1 + t^-1')
    """

    val: int
    coeffs: tuple[int, ...]

    def __init__(self, val: int = 0, coeffs: Sequence[int] = ()):
        (val,) = _polyops.as_ints((val,), "Laurent valuation")
        p = LaurentPoly._of(val, _polyops.as_ints(coeffs))
        self.val, self.coeffs = p.val, p.coeffs

    @classmethod
    def _of(cls, val: int, coeffs: Sequence[int]) -> LaurentPoly:
        """The constructor without its coefficient check, for coefficients
        that are ints already, as arithmetic results are."""
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        p = object.__new__(cls)
        p.val, p.coeffs = (val + lo, tuple(coeffs[lo:hi])) if lo < hi else (0, ())
        return p

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls._of(0, ())

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls._of(0, (1,))

    @classmethod
    def t_power(cls, k: int, coeff: int = 1) -> LaurentPoly:
        return cls(k, (coeff,))

    @classmethod
    def const(cls, n: int) -> LaurentPoly:
        # an exact int needs no check; True, 2.0 or numpy ints are validated
        return cls._of(0, (n,)) if type(n) is int else cls(0, (n,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_unit(self) -> bool:
        """True for +-t^k, the units of Z[t, t^-1]."""
        return self.coeffs in ((1,), (-1,))

    def degree(self) -> int:
        """Top exponent; garbage (-1) for zero."""
        return self.val + len(self.coeffs) - 1

    def coefficient(self, exp: int) -> int:
        i = exp - self.val
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.val == other.val and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.val, self.coeffs))

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._of(self.val, tuple(-c for c in self.coeffs))

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return self._combine(other, -1)

    def __rsub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return (-self) + other

    def _combine(self, other: int | LaurentPoly, sign: int) -> LaurentPoly:
        """self + sign * other in one pass, for sign = +-1."""
        if isinstance(other, int):
            other = LaurentPoly._of(0, (int(other),))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        lo = min(self.val, other.val)
        hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        out = [0] * (hi - lo)
        start = self.val - lo
        out[start:start + len(self.coeffs)] = self.coeffs
        for i, c in enumerate(other.coeffs, other.val - lo):
            out[i] += sign * c
        return LaurentPoly._of(lo, out)

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            return LaurentPoly._of(self.val, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._of(self.val + other.val,
                               _polyops.mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def conjugate(self) -> LaurentPoly:
        """Apply the ring involution t -> t^-1."""
        if not self.coeffs:
            return self
        return LaurentPoly._of(-(self.val + len(self.coeffs) - 1),
                               tuple(reversed(self.coeffs)))

    def exact_div(self, other: int | LaurentPoly) -> LaurentPoly:
        """Divide by an exact divisor; raises ArithmeticError otherwise."""
        if isinstance(other, int):
            other = LaurentPoly._of(0, (int(other),))
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"cannot divide a Laurent polynomial by {other!r}")
        if other.is_zero():
            raise ZeroDivisionError("Laurent polynomial division by zero")
        if self.is_zero():
            return self
        q = _polyops.div_exact(self.coeffs, other.coeffs)
        return LaurentPoly._of(self.val - other.val, q)

    def is_unit_multiple_of(self, other: LaurentPoly) -> bool:
        """True when self = +-t^k * other."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.coeffs == other.coeffs or self.coeffs == _polyops.neg(other.coeffs)

    _TERM = re.compile(
        r"\s*(?P<sign>[+-])?\s*"
        r"(?:(?P<coef>[0-9]+)\s*(?P<mon1>t(?:\^(?P<exp1>-?[0-9]+))?)?"
        r"|(?P<mon2>t(?:\^(?P<exp2>-?[0-9]+))?))")

    @classmethod
    def parse(cls, text: str) -> LaurentPoly:
        """Parse the rendering grammar, e.g. ``t^2 - t + 1`` or ``-3t^-2``,
        with the digits 0-9 only; an exponent beyond +-MAX_EXPONENT raises
        ValueError.

        >>> LaurentPoly.parse('t - 1 + t^-1')
        LaurentPoly('t - 1 + t^-1')
        """
        s = text.strip()
        if not s:
            raise ValueError("empty Laurent polynomial")
        acc: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(s):
            m = cls._TERM.match(s, pos)
            if not m or m.end() == pos:
                raise ValueError(f"bad Laurent polynomial near index {pos}: {text!r}")
            if m.group("sign") is None and not first:
                raise ValueError(f"missing +/- between terms in {text!r}")
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("coef") is not None:
                coef = int(m.group("coef"))
                exp = 0
                if m.group("mon1"):
                    exp = int(m.group("exp1")) if m.group("exp1") else 1
            else:
                coef = 1
                exp = int(m.group("exp2")) if m.group("exp2") else 1
            if abs(exp) > MAX_EXPONENT:
                raise ValueError(f"exponent |{exp}| exceeds MAX_EXPONENT = {MAX_EXPONENT}")
            acc[exp] = acc.get(exp, 0) + sign * coef
            pos = m.end()
            first = False
        return cls.from_dict(acc)

    @classmethod
    def from_dict(cls, terms: dict[int, int]) -> LaurentPoly:
        if not terms:
            return cls.zero()
        lo = min(terms)
        hi = max(terms)
        out = [0] * (hi - lo + 1)
        for exp, c in terms.items():
            out[exp - lo] += c
        return cls(lo, out)

    def __str__(self) -> str:
        return render(self.val, self.coeffs) or "0"

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def render(val: int, coeffs: Sequence) -> str:
    """t^val (c_0 + c_1 t + ...) for int or Fraction c_k, exponents
    descending, a non-integral magnitude in parentheses; "" for no terms."""
    parts: list[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        exp, mag = val + i, abs(c)
        body = str(mag) if mag.denominator == 1 else f"({mag})"
        if exp:
            mon = "t" if exp == 1 else f"t^{exp}"
            body = mon if mag == 1 else body + mon
        if parts:
            parts.append((" - " if c < 0 else " + ") + body)
        else:
            parts.append("-" + body if c < 0 else body)
    return "".join(parts)


def divides(d: int | LaurentPoly, x: LaurentPoly) -> bool:
    """Does d divide x in Z[t,t^-1]?"""
    try:
        x.exact_div(d)
    except ArithmeticError:
        return False
    return True


T = LaurentPoly(1, (1,))
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()
