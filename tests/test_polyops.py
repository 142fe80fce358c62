import pytest
from hypothesis import given, strategies as st

from blanchfield._polyops import (P, certify_coprime, div_exact, gcd_poly, mul,
                                  pseudo_divmod, scaled_series_inverse, sub, trim)
from blanchfield.qmod import RationalFunction as RF

polys = st.lists(st.integers(-20, 20), max_size=6).map(trim)
nonzero = polys.filter(bool)
# coefficients near multiples of P, so that reductions mod P lose information
mod_p_polys = st.lists(st.one_of(st.integers(-20, 20),
                                 st.sampled_from([P, -P, P + 1, 2 * P - 1, P * P])),
                       max_size=5).map(trim)


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


@given(mod_p_polys, mod_p_polys, mod_p_polys)
def test_certified_coprime_means_constant_gcd(a, b, g):
    # a common factor g makes the pair share a factor over Z unless g is constant
    for x, y in ((a, b), (mul(a, g), mul(b, g))):
        if certify_coprime(x, y):
            assert len(gcd_poly(x, y)) <= 1


# (a, b, the primitive gcd): the certificate must answer "unknown" on each
FALLBACKS = [
    ((1, P), (0, 1), (1,)),                   # P | lc(a): P t + 1 and t
    (mul((1, P), (1, 1)), mul((1, P), (0, 1)), (1, P)),  # and a shared factor
    ((0, 1), (P, 1), (1,)),                   # t and t + P share t mod P only
    ((-1, 1), (-1, 0, 1), (-1, 1)),           # t - 1 divides t^2 - 1 over Z
    ((P,), (1,), (1,)),                       # a constant that P divides
    ((1, 1), (), (1, 1)),                     # zero b: gcd(a, 0) = a
    ((), (1, 1), (1, 1)),                     # zero a
    ((), (), ()),
]


@pytest.mark.parametrize("a, b, g", FALLBACKS)
def test_certificate_falls_back(a, b, g):
    assert not certify_coprime(a, b)
    assert gcd_poly(a, b) == g
    if a:
        # through RationalFunction, which asks the certificate first
        x = RF(b, a)
        assert (x.num, x.den) == (div_exact(b, g), div_exact(a, g))


def test_certificate_on_constants():
    assert certify_coprime((3,), (5,))
    assert certify_coprime((3,), ())          # gcd(3, 0) = 3 is a constant
    assert certify_coprime((2,), (0, 0, 4))
    assert certify_coprime((1, 1), (7,))
    assert not certify_coprime((0, 1), (0, P))  # b vanishes mod P, a does not


@given(polys, nonzero)
def test_pseudo_divmod_identity(a, b):
    d, q, r = pseudo_divmod(a, b)
    assert sub(mul((d,), a), mul(q, b)) == r
    assert len(r) < len(b) and d > 0
    assert b[-1] ** max(0, len(a) - len(b) + 1) % d == 0


def test_pseudo_divmod_scales_only_when_needed():
    assert pseudo_divmod((1, 2, 4), (1, 2)) == (1, (0, 2), (1,))  # 4t^2 + 2t + 1
    assert pseudo_divmod((1, 0, 1), (1, 2)) == (4, (-1, 2), (5,))
    assert pseudo_divmod((1, 2), (1, 0, 3)) == (1, (), (1, 2))


@given(nonzero.filter(lambda b: b[0]), st.integers(1, 5))
def test_scaled_series_inverse(b, m):
    e = scaled_series_inverse(b, m)
    assert all(type(c) is int for c in e)
    assert trim(mul(e, b)[:m]) == (b[0] ** m,)
