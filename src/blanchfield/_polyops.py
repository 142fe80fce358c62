"""Dense univariate polynomial arithmetic on bare coefficient tuples.

A polynomial is a tuple of coefficients indexed by exponent; the zero
polynomial is the empty tuple and the leading (last) coefficient of a
nonzero polynomial is nonzero.  Coefficients are Python ints unless a
function says it also accepts Fractions.  Everything here is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def trim(coeffs) -> tuple:
    """Drop trailing zero coefficients."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def neg(a) -> tuple:
    return tuple(-c for c in a)


def sub(a, b) -> tuple:
    return add(a, neg(b))


def mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim(out)


def scale(a, k) -> tuple:
    if not k:
        return ()
    return tuple(c * k for c in a)


def shift(a, k: int) -> tuple:
    """Multiply by t**k with k >= 0."""
    if not a:
        return ()
    return (0,) * k + tuple(a)


def content(a) -> int:
    """Gcd of the integer coefficients (0 for the zero polynomial)."""
    g = 0
    for c in a:
        g = gcd(g, abs(c))
        if g == 1:
            break
    return g


def primitive(a) -> tuple:
    """Divide out the positive content; the sign pattern is preserved."""
    if not a:
        return ()
    c = content(a)
    return tuple(v // c for v in a)


def _reduce_step(r, b):
    # one pseudo-division step: lc(b)*r - lc(r)*t^(deg r - deg b)*b
    k = len(r) - len(b)
    lb, lr = b[-1], r[-1]
    out = [lb * c for c in r]
    for i, c in enumerate(b):
        out[i + k] -= lr * c
    return trim(out)


def gcd_poly(a, b) -> tuple:
    """Primitive gcd of two integer polynomials, positive leading coefficient.

    Uses a primitive pseudo-remainder sequence, so all intermediate
    arithmetic stays over the integers.
    """
    a, b = primitive(trim(a)), primitive(trim(b))
    while b:
        r = a
        while r and len(r) >= len(b):
            r = _reduce_step(r, b)
        a, b = b, primitive(r)
    if a and a[-1] < 0:
        a = neg(a)
    return a


def divmod_frac(a, b):
    """Quotient and remainder over the rationals.

    Accepts int or Fraction coefficients; returns Fraction tuples.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in a]
    if len(a) < len(b):
        return (), trim(r)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    lb = Fraction(b[-1])
    while True:
        r = list(trim(r))
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        c = r[-1] / lb
        q[k] = c
        for i, bc in enumerate(b):
            r[i + k] -= c * Fraction(bc)
    return trim(q), trim(r)


def div_exact(a, b) -> tuple:
    """a / b for integer polynomials; ArithmeticError unless b divides a in Z[t].

    Integer long division from the top: a quotient coefficient that is
    not an integer, or a nonzero remainder, means b does not divide a.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    nb = len(b)
    nq = len(a) - nb + 1
    if nq <= 0:
        raise ArithmeticError("polynomial division is not exact")
    r = list(a)
    q = [0] * nq
    lb = b[-1]
    for k in range(nq - 1, -1, -1):
        c, m = divmod(r[k + nb - 1], lb)
        if m:
            raise ArithmeticError("polynomial division is not exact over Z")
        if c:
            q[k] = c
            for i, bc in enumerate(b):
                r[i + k] -= c * bc
    if any(r[:nb - 1]):
        raise ArithmeticError("polynomial division is not exact")
    return tuple(q)


def series_inverse(b, m: int) -> tuple:
    """Inverse of b modulo t**m over the rationals; requires b[0] != 0."""
    if not b or not b[0]:
        raise ZeroDivisionError("no power-series inverse: zero constant term")
    b0 = Fraction(b[0])
    inv = [Fraction(0)] * m
    inv[0] = 1 / b0
    for n in range(1, m):
        s = Fraction(0)
        for i in range(1, min(n, len(b) - 1) + 1):
            s += Fraction(b[i]) * inv[n - i]
        inv[n] = -s / b0
    return trim(inv)


def clear_denominators(a):
    """Smallest positive integer d with d*a integral, plus the integer tuple."""
    d = 1
    for c in a:
        d = d * c.denominator // gcd(d, c.denominator)
    return d, tuple(int(c * d) for c in a)
