import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blanchfield.laurent import LaurentPoly, T, ONE, ZERO, divides

laurents = st.builds(
    LaurentPoly,
    st.integers(min_value=-4, max_value=4),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
)


def test_normalization_trims_ends():
    assert LaurentPoly(2, (0, 1, 0)) == LaurentPoly(3, (1,))
    assert LaurentPoly(5, (0, 0)) == ZERO
    assert ZERO.val == 0 and ZERO.coeffs == ()


def test_addition_cancellation():
    assert (T + 1) + LaurentPoly.const(-1) == T


def test_unit_multiplication():
    assert (T - 1) * LaurentPoly(-1, (1,)) == LaurentPoly.parse("1 - t^-1")


def test_product_expansion():
    assert (T - 1) * (T + 1) == LaurentPoly.parse("t^2 - 1")


def test_conjugate_examples():
    assert T.conjugate() == LaurentPoly(-1, (1,))
    assert LaurentPoly.const(3).conjugate() == LaurentPoly.const(3)
    assert (T * T - T + 1).conjugate() == LaurentPoly.parse("t^-2 - t^-1 + 1")


def test_exact_div():
    p = (T - 1) * (T + 1) * LaurentPoly(-2, (3,))
    assert p.exact_div(T - 1) == (T + 1) * LaurentPoly(-2, (3,))
    with pytest.raises(ArithmeticError):
        (T + 1).exact_div(T - 1)


def test_exact_div_by_an_int():
    # an int divisor is a constant, as for + and *
    assert LaurentPoly(-1, (4, 6)).exact_div(2) == LaurentPoly(-1, (2, 3))
    with pytest.raises(ArithmeticError, match="not exact"):
        ONE.exact_div(2)
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(0)
    assert divides(2, LaurentPoly(3, (4, -2))) and not divides(2, T + 1)
    assert divides(-1, T - 1)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, "2", None])
def test_exact_div_rejects_other_divisor_types(bad):
    # a TypeError, not an ArithmeticError that divides() would read as "no"
    with pytest.raises(TypeError, match="cannot divide"):
        ONE.exact_div(bad)
    with pytest.raises(TypeError):
        divides(bad, ONE)


def test_unit_multiple():
    assert (T - 1).is_unit_multiple_of((T - 1) * LaurentPoly(5, (-1,)))
    assert not (T - 1).is_unit_multiple_of(T + 1)
    assert ZERO.is_unit_multiple_of(ZERO)
    assert not ZERO.is_unit_multiple_of(ONE)


def test_str_grammar():
    assert str(LaurentPoly.parse("t - 1 + t^-1")) == "t - 1 + t^-1"
    assert str(LaurentPoly.parse("-t + 3 - t^-1")) == "-t + 3 - t^-1"
    assert str(ZERO) == "0"
    assert str(LaurentPoly(2, (2,))) == "2t^2"
    assert str(LaurentPoly(-1, (1,))) == "t^-1"


def test_parse_rejects_garbage():
    for bad in ("", "t^", "1 2", "q + 1", "t+"):
        with pytest.raises(ValueError):
            LaurentPoly.parse(bad)


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(laurents, laurents)
def test_conjugate_is_ring_involution(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(laurents)
def test_str_parse_round_trip(a):
    assert LaurentPoly.parse(str(a)) == a


@given(laurents, laurents, st.integers(min_value=-5, max_value=5))
def test_arithmetic_results_match_the_public_constructor(a, b, k):
    # results built without the int() coercion are indistinguishable from
    # the same polynomial built through the constructor
    difference, product = {}, {}
    for i, x in enumerate(a.coeffs, a.val):
        difference[i] = difference.get(i, 0) + x
        for j, y in enumerate(b.coeffs, b.val):
            product[i + j] = product.get(i + j, 0) + x * y
    for j, y in enumerate(b.coeffs, b.val):
        difference[j] = difference.get(j, 0) - y
    for got, want in ((a - b, LaurentPoly.from_dict(difference)),
                      (a - k, a + LaurentPoly.const(-k)),
                      (k - a, LaurentPoly.const(k) + (-a)),
                      (a * b, LaurentPoly.from_dict(product)),
                      (a * k, LaurentPoly(a.val, [c * k for c in a.coeffs]))):
        assert (got, hash(got), repr(got), str(got)) == (want, hash(want), repr(want), str(want))
        assert (got.val, got.coeffs) == (want.val, want.coeffs)
        assert all(type(c) is int for c in got.coeffs)


def test_constructor_coerces_coefficients():
    p = LaurentPoly(1, (False, True, 2.0, 0))
    assert (p.val, p.coeffs) == (2, (1, 2))
    assert all(type(c) is int for c in p.coeffs)
    assert p - LaurentPoly(2, (1,)) == LaurentPoly(3, (2,))


def test_constructor_rejects_non_integral_coefficients():
    # int() used to truncate these: LaurentPoly(0, [0.4]) stored (0,) and was
    # truthy, and LaurentPoly(0, [1, 0.5]) equalled LaurentPoly(0, [1])
    for coeffs, bad in (([0.4], "0.4"), ([1, 0.5], "0.5"),
                        ((1, Fraction(1, 3)), "Fraction(1, 3)"), (["7"], "'7'"),
                        ([float("nan")], "nan"), ([None], "None")):
        with pytest.raises(TypeError, match=re.escape(bad)):
            LaurentPoly(0, coeffs)


def test_constructor_rejects_non_integral_valuation():
    # LaurentPoly(1.5, (1,)) used to construct, and its repr raised
    for val, bad in ((1.5, "1.5"), (Fraction(1, 2), "Fraction(1, 2)"), ("1", "'1'"),
                     (None, "None")):
        with pytest.raises(TypeError, match=f"valuation {re.escape(bad)} is not"):
            LaurentPoly(val, (1,))
    p = LaurentPoly(2.0, (1,))
    assert type(p.val) is int and repr(p) == "LaurentPoly('t^2')"


def test_constructor_accepts_numpy_integers():
    np = pytest.importorskip("numpy")
    p = LaurentPoly(-1, np.array([3, 0, -2], dtype=np.int64))
    assert p == LaurentPoly(-1, (3, 0, -2))
    assert all(type(c) is int for c in p.coeffs)
