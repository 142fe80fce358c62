"""Dense univariate polynomial arithmetic on bare coefficient tuples.

A polynomial is a tuple of coefficients indexed by exponent; the zero
polynomial is the empty tuple and the leading (last) coefficient of a
nonzero polynomial is nonzero.  Coefficients are Python ints, and
everything here is exact integer arithmetic.
"""

from __future__ import annotations

from math import gcd

P = 2**31 - 1  # the prime of the coprimality certificate


def as_ints(coeffs, what: str = "polynomial coefficient") -> tuple:
    """The coefficients as Python ints; TypeError names one whose value is not
    an integer (True, 2.0 and numpy integers pass; 0.4 and 1/3 do not)."""
    out = []
    for c in coeffs:
        if type(c) is int:
            out.append(c)
            continue
        try:
            i = int(c)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != c:
            raise TypeError(f"{what} {c!r} is not an integer")
        out.append(i)
    return tuple(out)


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


def gcd_poly(a, b) -> tuple:
    """Primitive gcd of two integer polynomials, positive leading coefficient.

    Uses a primitive pseudo-remainder sequence, so all intermediate
    arithmetic stays over the integers.
    """
    a, b = primitive(trim(a)), primitive(trim(b))
    while b:
        a, b = b, primitive(pseudo_divmod(a, b)[2])
    if a and a[-1] < 0:
        a = neg(a)
    return a


def certify_coprime(a, b) -> bool:
    """True only if a and b are coprime over Q; False means "unknown".

    Runs Euclid on a and b mod P and answers True when P does not divide
    lc(a) and the gcd mod P is constant.  That is exact: the gcd g over
    Z divides a, so lc(g) divides lc(a) and g keeps its degree mod P,
    while g mod P divides the gcd mod P; so deg g = 0.

    >>> certify_coprime((1, 1), (0, 1))     # t + 1 and t
    True
    >>> certify_coprime((0, 1), (P, 1))     # t and t + P share t mod P only
    False
    """
    return bool(a) and a[-1] % P != 0 and len(gcd_mod(a, b, P)) == 1


def gcd_mod(a, b, p: int) -> tuple:
    """A gcd of a and b in F_p[t] for a prime p, by Euclid, not made monic;
    () when both vanish mod p.

    >>> gcd_mod((1, 0, 1), (2, 1), 5)       # t^2 + 1 and t + 2 share t = -2 mod 5
    (2, 1)
    """
    a, b = list(trim([c % p for c in a])), list(trim([c % p for c in b]))
    while b:
        inv, nb = pow(b[-1], -1, p), len(b)
        while len(a) >= nb:
            c = a.pop() * inv % p
            k = len(a) - nb + 1
            for i in range(nb - 1):
                a[k + i] = (a[k + i] - c * b[i]) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return tuple(a)


def pseudo_divmod(a, b) -> tuple:
    """(d, q, r) with d*a = q*b + r, deg r < deg b and d > 0 dividing
    lc(b)^max(0, deg a - deg b + 1): long division that scales the
    running remainder only when lc(b) does not divide its top coefficient.
    """
    nb, lb = len(b), b[-1]
    nq = len(a) - nb + 1
    r, q, d = list(a), [0] * nq, 1
    for k in range(nq - 1, -1, -1):
        c = r[k + nb - 1]
        if not c:
            continue
        g = abs(lb) // gcd(c, lb)
        if g > 1:
            r, q, d = [g * v for v in r], [g * v for v in q], d * g
        q[k] = c = g * c // lb
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
    return d, tuple(q), trim(r[:nb - 1])


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


def derivative(a) -> tuple:
    return trim(tuple(k * c for k, c in enumerate(a))[1:])


def sign_at(a, u: int, v: int) -> int:
    """Sign of a(u/v) for v > 0, by homogeneous Horner in integers; v = 0
    gives the sign of lc(a) * u^deg(a), the sign at u * infinity.

    >>> sign_at((1, 0, -3), 1, 2), sign_at((1, 0, -3), 1, 1), sign_at((), 5, 1)
    (1, -1, 0)
    """
    h, vp = 0, 1
    for c in reversed(a):
        h = h * u + c * vp
        vp *= v
    return (h > 0) - (h < 0)


def sturm_chain(a) -> tuple:
    """The Sturm sequence a, a', -rem(a, a'), ... of a nonzero polynomial,
    each term divided by a positive integer.  For x < y not roots of a, the
    number of distinct real roots in (x, y] is the number of sign changes
    along the chain at x minus that at y (Sturm 1829), zeros skipped.

    >>> sturm_chain((-1, 0, 1))
    ((-1, 0, 1), (0, 1), (1,))
    """
    chain = [primitive(a), primitive(derivative(a))]
    while len(chain[-1]) > 1:
        r = pseudo_divmod(chain[-2], chain[-1])[2]
        if not r:
            break
        chain.append(neg(primitive(r)))
    return tuple(c for c in chain if c)


def scaled_series_inverse(b, m: int) -> tuple:
    """e with e*b = b[0]^m mod t^m (b[0] != 0, m >= 1); exact, as the n-th
    coefficient of 1/b over Q has a denominator dividing b[0]^(n+1)."""
    b0 = b[0]
    e = [b0 ** (m - 1)]
    for n in range(1, m):
        e.append(-sum(b[i] * e[n - i] for i in range(1, min(n, len(b) - 1) + 1)) // b0)
    return trim(e)
