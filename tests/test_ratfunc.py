from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blanchfield.laurent import LaurentPoly, T
from blanchfield.qmod import RationalFunction as RF, canonical_class

laurents = st.builds(
    LaurentPoly,
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=4),
)
nonzero_laurents = laurents.filter(bool)
ratfuncs = st.builds(RF, laurents, nonzero_laurents)


# Q(t) arithmetic as a test-only reference on Laurent pairs.  Each result
# is written as an unreduced pair and handed to the constructor, so the
# tests below check that it gives every value one representation.

def pair(x):
    return LaurentPoly(0, x.num), LaurentPoly(0, x.den)


def add(x, y, sign=1):
    (n1, d1), (n2, d2) = pair(x), pair(y)
    return RF(n1 * d2 + sign * n2 * d1, d1 * d2)


def mul(x, y):
    (n1, d1), (n2, d2) = pair(x), pair(y)
    return RF(n1 * n2, d1 * d2)


def div(x, y):
    (n1, d1), (n2, d2) = pair(x), pair(y)
    return RF(n1 * d2, d1 * n2)


def conjugate(x):
    n, d = pair(x)
    return RF(n.conjugate(), d.conjugate())


def test_additive_inverse_cancels():
    assert add(RF(1, T - 1), RF(1, 1 - T)).is_zero()


def test_multiplicative_inverse():
    assert mul(RF(T, T - 1), RF(T - 1, T)) == RF(1)


def test_common_denominator_addition():
    den = LaurentPoly.parse("t^2 - t + 1")
    assert add(RF(1, den), RF(T, den)) == RF(T + 1, den)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        div(RF(1), RF(0))
    with pytest.raises(ZeroDivisionError):
        RF(1, 0)


def test_reduction_over_z():
    x = RF(LaurentPoly.parse("t^2 - 1"), T - 1)
    assert x == RF(T + 1)
    assert x.num == (1, 1) and x.den == (1,)


def test_denominator_sign_normalized():
    x = RF(1, -T + 1)  # 1/(1-t) = -1/(t-1)
    assert x.den[-1] > 0
    assert x == RF(-1, T - 1)


def test_membership_examples():
    assert not RF(T, 2).is_laurent()
    assert RF(LaurentPoly.parse("t^2 - 1"), T - 1).is_laurent()
    # denominator irreducible over Q (discriminant -3), so not a monomial
    assert not RF(LaurentPoly.parse("t^2 - 2t + 1"),
                  LaurentPoly.parse("t^2 - t + 1")).is_laurent()


def test_membership_with_t_power_denominator():
    x = RF(LaurentPoly.parse("t^3 + 2"), LaurentPoly(2, (1,)))
    assert x.is_laurent()
    assert x == RF(LaurentPoly.parse("t + 2t^-2"))


def test_laurent_round_trip():
    # a Laurent polynomial is stored as the pair t^k p over t^k
    p = LaurentPoly.parse("3t^2 - t^-1")
    x = RF(p)
    assert x.is_laurent() and x.den == (0, 1)
    assert LaurentPoly(1 - len(x.den), x.num) == p


def test_conjugate():
    x = RF(T, T - 1)
    # t^-1 / (t^-1 - 1) = 1/(1 - t) = -1/(t - 1)
    assert conjugate(x) == RF(-1, T - 1)
    assert conjugate(conjugate(x)) == x


@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(ratfuncs)
def test_sub_and_div_invert(a):
    assert add(a, a, -1).is_zero()
    if not a.is_zero():
        assert div(a, a) == RF(1)


@given(ratfuncs, ratfuncs)
def test_conjugate_is_field_involution(a, b):
    assert conjugate(conjugate(a)) == a
    assert conjugate(mul(a, b)) == mul(conjugate(a), conjugate(b))
    assert conjugate(add(a, b)) == add(conjugate(a), conjugate(b))


@given(ratfuncs)
def test_canonical_form_invariants(a):
    if a.is_zero():
        assert a.num == () and a.den == (1,)
        return
    assert a.den[-1] > 0
    from math import gcd
    from blanchfield import _polyops
    assert gcd(_polyops.content(a.num), _polyops.content(a.den)) == 1
    assert len(_polyops.gcd_poly(a.num, a.den)) <= 1


def test_constructor_rejects_non_integral_coefficients():
    with pytest.raises(TypeError, match=r"Fraction\(1, 3\)"):
        canonical_class(RF((1,), (Fraction(1, 3), 1)))
    with pytest.raises(TypeError, match="0.5"):
        RF((1, 0.5))
    assert RF((True, 2.0), (3,)) == RF(LaurentPoly(0, (1, 2)), 3)
