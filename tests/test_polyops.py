import pytest
from hypothesis import given, strategies as st

from blanchfield._polyops import div_exact, mul, trim

polys = st.lists(st.integers(-20, 20), max_size=6).map(trim)
nonzero = polys.filter(bool)


@given(polys, nonzero)
def test_div_exact_inverts_mul(a, b):
    assert div_exact(mul(a, b), b) == a


def test_div_exact_rejects_rational_quotient():
    # (1 + t) / (2 + 2t) = 1/2 lies in Q[t] but not in Z[t]
    with pytest.raises(ArithmeticError):
        div_exact((1, 1), (2, 2))
    with pytest.raises(ArithmeticError):
        div_exact((0, 1), (0, 2))  # t / 2t = 1/2 with no remainder


def test_div_exact_rejects_remainder():
    with pytest.raises(ArithmeticError):
        div_exact((1, 0, 1), (1, 1))  # t^2 + 1 = (t - 1)(t + 1) + 2
    with pytest.raises(ArithmeticError):
        div_exact((1,), (1, 1))


def test_div_exact_by_zero():
    with pytest.raises(ZeroDivisionError):
        div_exact((1,), ())
