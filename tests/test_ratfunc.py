from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blanchfield.laurent import LaurentPoly, T
from blanchfield.qmod import canonical_class
from blanchfield.ratfunc import RationalFunction as RF

laurents = st.builds(
    LaurentPoly,
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=4),
)
nonzero_laurents = laurents.filter(bool)
ratfuncs = st.builds(RF, laurents, nonzero_laurents)


def test_additive_inverse_cancels():
    assert (RF(1, T - 1) + RF(1, 1 - T)).is_zero()


def test_multiplicative_inverse():
    assert RF(T, T - 1) * RF(T - 1, T) == RF.one()


def test_common_denominator_addition():
    den = LaurentPoly.parse("t^2 - t + 1")
    assert RF(1, den) + RF(T, den) == RF(T + 1, den)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        RF.one() / RF.zero()
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
    assert x.to_laurent() == LaurentPoly.parse("t + 2t^-2")


def test_laurent_round_trip():
    p = LaurentPoly.parse("3t^2 - t^-1")
    assert RF(p).to_laurent() == p


def test_conjugate():
    x = RF(T, T - 1)
    # t^-1 / (t^-1 - 1) = 1/(1 - t) = -1/(t - 1)
    assert x.conjugate() == RF(-1, T - 1)
    assert x.conjugate().conjugate() == x


@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(ratfuncs)
def test_sub_and_div_invert(a):
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a / a == RF.one()


@given(ratfuncs, ratfuncs)
def test_conjugate_is_field_involution(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


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
