import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from blanchfield._polyops import content, mul, shift, sub, trim
from blanchfield.laurent import LaurentPoly, T, divides
from blanchfield import qmod
from blanchfield.qmod import QModLambda, RationalFunction as RF, canonical_class

laurents = st.builds(
    LaurentPoly,
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=4),
)
ratfuncs = st.builds(RF, laurents, laurents.filter(bool))


# --- exact references on reduced pairs over Z[t,t^-1] -----------------------

def as_pair(x):
    return LaurentPoly(0, x.num), LaurentPoly(0, x.den)


def differ_by_laurent(x, y):
    """x - y lies in Z[t,t^-1]: d1 d2 divides n1 d2 - n2 d1."""
    (n1, d1), (n2, d2) = as_pair(x), as_pair(y)
    return divides(d1 * d2, n1 * d2 - n2 * d1)


def rf_add(x, y, sign=1):
    (n1, d1), (n2, d2) = as_pair(x), as_pair(y)
    return RF(n1 * d2 + sign * n2 * d1, d1 * d2)


def rf_conjugate(x):
    n, d = as_pair(x)
    return RF(n.conjugate(), d.conjugate())


def test_integers_are_zero_class():
    assert canonical_class(RF(5)).is_zero()
    assert canonical_class(RF(LaurentPoly.parse("t^3 - 7t^-2"))).is_zero()


def test_half_t():
    cls = canonical_class(RF(T, 2))
    assert cls.frac_coeffs == (Fraction(1, 2),)
    assert cls.frac_val == 1
    assert not cls.prop_num
    assert str(cls) == "(1/2)t"


def test_trefoil_class_canonical_form():
    # (t-1)^2 = (t^2 - t + 1) - t forces the proper part -t/(t^2 - t + 1)
    num = LaurentPoly.parse("t^2 - 2t + 1")
    den = LaurentPoly.parse("t^2 - t + 1")
    cls = canonical_class(RF(num, den))
    assert cls.prop_num == (Fraction(0), Fraction(-1))
    assert cls.prop_den == (1, -1, 1)
    assert not cls.frac_coeffs
    assert str(cls) == "(-t)/(t^2 - t + 1)"


def test_zero_class_representation():
    z = QModLambda.zero()
    assert z.is_zero()
    assert z.frac_coeffs == () and z.prop_num == () and z.prop_den == (1,)
    assert canonical_class(RF(0)) == z


def test_proper_part_unique_against_t_powers():
    # 1/(t(t-1)) and 1/(t-1) differ by -t^-1, a Laurent polynomial
    a = canonical_class(RF(1, T * (T - 1)))
    b = canonical_class(RF(1, T - 1))
    assert a == b


def test_representative_is_in_the_class():
    x = RF(LaurentPoly.parse("t^3 + t - 2"), LaurentPoly.parse("2t^2 - 2t + 2"))
    cls = canonical_class(x)
    assert differ_by_laurent(cls.representative(), x)


def test_conjugate_of_class():
    cls = canonical_class(RF(1, T - 1))
    conj = cls.conjugate()
    assert conj == canonical_class(RF(1, (T - 1).conjugate()))
    assert conj.conjugate() == cls


@given(ratfuncs, laurents)
def test_class_unchanged_by_laurent_shift(x, p):
    assert canonical_class(rf_add(x, RF(p))) == canonical_class(x)


@given(ratfuncs, ratfuncs)
def test_classes_equal_iff_difference_is_laurent(x, y):
    same = canonical_class(x) == canonical_class(y)
    assert same == differ_by_laurent(x, y)


@given(ratfuncs)
def test_zero_class_iff_membership(x):
    assert canonical_class(x).is_zero() == x.is_laurent()


@given(ratfuncs)
def test_canonical_invariants(x):
    from blanchfield._polyops import content

    cls = canonical_class(x)
    assert all(0 <= c < 1 for c in cls.frac_coeffs)
    assert len(cls.prop_num) < len(cls.prop_den)
    assert cls.prop_den[0] != 0
    assert cls.prop_den[-1] > 0
    assert content(cls.prop_den) == 1
    assert differ_by_laurent(cls.representative(), x)


@given(ratfuncs, ratfuncs)
def test_class_addition_matches_representatives(x, y):
    assert canonical_class(x) + canonical_class(y) == canonical_class(rf_add(x, y))


# --- the integer canonical form against a Fraction reference ---------------

def _ref_divmod(a, b):
    """Quotient and remainder of polynomials over Q, as Fraction tuples."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            r[i + k] -= c * bc
    return trim(q), trim(r[:len(b) - 1])


def _ref_series_inverse(b, m):
    """Inverse of b modulo t^m over Q."""
    inv = [1 / Fraction(b[0])]
    for n in range(1, m):
        inv.append(-sum(b[i] * inv[n - i] for i in range(1, min(n, len(b) - 1) + 1)) / b[0])
    return inv


def reference_class(x):
    """Canonical form of x + Z[t,t^-1] by division and series inversion over Q."""
    num, den = x.num, x.den
    if not num:
        return QModLambda.zero()
    m = next(i for i, c in enumerate(den) if c)
    q0 = den[m:]
    s, r = _ref_divmod(num, q0)
    frac = {i - m: c for i, c in enumerate(s)}
    if r and m:
        a = trim(mul(r, _ref_series_inverse(q0, m))[:m])
        rest = sub(r, mul(a, q0))
        assert not any(rest[:m])
        for i, c in enumerate(a):
            frac[i - m] = frac.get(i - m, Fraction(0)) + c
        r = trim(rest[m:])
    frac = {e: c - (c.numerator // c.denominator) for e, c in frac.items()}
    frac = {e: c for e, c in frac.items() if c}
    lo = min(frac, default=0)
    coeffs = tuple(frac.get(e, Fraction(0)) for e in range(lo, max(frac, default=-1) + 1))
    c = content(q0)
    prop = (tuple(Fraction(v, c) for v in r), tuple(v // c for v in q0)) if r else ((), (1,))
    if not coeffs and not r:
        return QModLambda.zero()
    return QModLambda(lo, coeffs, *prop)


small = st.integers(-12, 12)
# q0 with q0(0) != 0 and a leading coefficient of either sign, often non-monic
q0s = st.tuples(small.filter(bool), st.lists(small, max_size=3),
                st.sampled_from([1, -1, 2, -3, 5])).map(lambda p: (p[0], *p[1], p[2]))


@given(st.lists(small, max_size=7), q0s, st.integers(0, 3), st.sampled_from([1, 2, 6]))
def test_from_ratfunc_matches_fraction_reference(num, q0, m, k):
    # den = k * t^m * q0: a t^m factor and content k > 1 in the denominator
    x = RF(trim(num), tuple(k * c for c in shift(q0, m)))
    ours, ref = canonical_class(x), reference_class(x)
    assert ours == ref and repr(ours) == repr(ref)
    assert all(type(c) is Fraction for c in ours.frac_coeffs + ours.prop_num)


def test_from_ratfunc_pinned_splits():
    # (t^2 + 1)/(t^3 (2t - 3)): t^m split with a non-monic q0 of negative q0(0)
    for x in (RF(LaurentPoly.parse("t^2 + 1"), LaurentPoly.parse("2t^4 - 3t^3")),
              RF(LaurentPoly.parse("-5t^4 + 3"), LaurentPoly.parse("6t^2 + 4t")),
              RF(LaurentPoly.parse("7t^5 - t"), LaurentPoly.parse("-3t^3 + 9t^2 - 2"))):
        assert canonical_class(x) == reference_class(x)
        assert differ_by_laurent(canonical_class(x).representative(), x)


def _sympy_ratfunc(sp, t, x):
    return sp.Poly(list(reversed(x.num)) or [0], t).as_expr() / \
        sp.Poly(list(reversed(x.den)), t).as_expr()


def test_representative_differs_by_laurent_sympy():
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t")
    rng = random.Random(5)
    for _ in range(60):
        num = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        q0 = [rng.choice([-2, -1, 1, 3])] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        x = RF(trim(num), tuple(rng.choice([1, 4]) * c for c in shift(q0, rng.randint(0, 3))))
        diff = sp.cancel(_sympy_ratfunc(sp, t, canonical_class(x).representative())
                         - _sympy_ratfunc(sp, t, x))
        # a Laurent polynomial: the reduced denominator is +-t^k
        den = sp.Poly(sp.denom(diff), t)
        assert den.is_monomial and abs(den.LC()) == 1
        assert all(c.is_integer for c in sp.Poly(sp.numer(diff), t).all_coeffs())


# --- lazy pairs against eager canonical forms --------------------------------

def fields(cls):
    return cls.frac_val, cls.frac_coeffs, cls.prop_num, cls.prop_den


def eager(num, den):
    return canonical_class(RF(num, den))


# denominators with t^m factors and content > 1
dens = st.builds(lambda q, m, k: q * LaurentPoly(m, (k,)),
                 laurents.filter(bool), st.integers(-3, 3), st.sampled_from([1, -1, 2, 6]))
pairs = st.tuples(laurents, dens)


@st.composite
def related_pairs(draw):
    """Two pairs whose denominators are shared, conjugate, +-t^k multiples,
    unrelated, or which present one class over different denominators
    (unrelated or +-t^k multiples)."""
    n1, d1 = draw(pairs)
    n2 = draw(laurents)
    how = draw(st.sampled_from(["shared", "conjugate", "unit", "other", "same class",
                                "same class, unit"]))
    unit = LaurentPoly(draw(st.integers(-2, 2)), (draw(st.sampled_from([1, -1])),))
    if how == "shared":
        d2 = d1
    elif how == "conjugate":
        d2 = d1.conjugate()
    elif how == "unit":
        d2 = d1 * unit
    elif how == "same class, unit":
        n2, d2 = (n1 + d1 * draw(laurents)) * unit, d1 * unit
    elif how == "other":
        d2 = draw(dens)
    else:
        f = draw(dens)
        n2, d2 = (n1 + d1 * draw(laurents)) * f, d1 * f
    return (n1, d1), (n2, d2)


@given(related_pairs())
def test_lazy_equality_matches_canonical_forms(ab):
    (n1, d1), (n2, d2) = ab
    a, b = QModLambda._pair(n1, d1), QModLambda._pair(n2, d2)
    ea, eb = eager(n1, d1), eager(n2, d2)
    same = fields(ea) == fields(eb)
    assert (a == b) == (b == a) == (a == eb) == same
    assert a.is_zero() == (not a) == (fields(ea) == fields(QModLambda.zero()))
    if a == b:
        assert hash(a) == hash(b) == hash(eb)
    x, y = RF(n1, d1), RF(n2, d2)
    assert fields(a + b) == fields(canonical_class(rf_add(x, y)))
    assert fields(a - b) == fields(canonical_class(rf_add(x, y, -1)))
    assert fields(-a) == fields(canonical_class(RF(-n1, d1)))
    assert fields(a.conjugate()) == fields(canonical_class(rf_conjugate(x)))
    assert str(a) == str(ea) and repr(a) == repr(ea)


@given(pairs, laurents, st.integers(-2, 2), st.sampled_from([1, -1]))
def test_unit_multiple_denominators_add_over_one_of_them(a, n2, k, sign):
    # d2 = +-t^k d1: the sum stays over d2
    n1, d1 = a
    d2 = d1 * LaurentPoly(k, (sign,))
    total = QModLambda._pair(n1, d1) + QModLambda._pair(n2, d2)
    assert total._den == d2
    assert fields(total) == fields(canonical_class(rf_add(RF(n1, d1), RF(n2, d2))))
    # conj(d) = t^-6 d for d = t^3 d1 conj(d1), as conj(det(tA - A^T)) = t^-2g det(tA - A^T)
    d = d1 * d1.conjugate() * LaurentPoly(3, (1,))
    x, y = QModLambda._pair(n1, d), RF(n1, d)
    assert (x + x.conjugate())._den == d.conjugate()
    assert fields(x - x.conjugate()) == fields(canonical_class(rf_add(y, rf_conjugate(y), -1)))


@given(pairs, laurents, st.integers(-4, 4))
def test_lazy_scaling_matches_canonical_forms(pair, p, k):
    a, (n, d) = QModLambda._pair(*pair), pair
    for s in (p, k):
        assert fields(a * s) == fields(s * a) == fields(canonical_class(RF(n * s, d)))


@given(laurents, laurents.filter(bool), st.integers(-3, 3), st.sampled_from([-1, 2, -2, 6]))
def test_raw_pair_canonicalises_like_its_reduced_pair(n, q, m, k):
    # a raw pair: any valuations, and d of negative lc or content > 1
    d = q * LaurentPoly(m, (k,))
    assume(d.coeffs[-1] < 0 or content(d.coeffs) > 1)
    x = RF(n, d)
    assert fields(QModLambda._pair(n, d)) == fields(canonical_class(x)) \
        == fields(reference_class(x))


def test_constructed_instance_is_its_representative():
    # the positional constructor takes canonical fields; its pair is the
    # representative, so it compares by the same rule as a lazy pair
    cls = QModLambda(-1, (Fraction(1, 2),), (Fraction(0), Fraction(-1, 3)), (1, -1, 1))
    x = rf_add(RF(LaurentPoly(-1, (1,)), 2), RF(LaurentPoly(1, (-1,)), LaurentPoly(0, (3, -3, 3))))
    # (1/2)t^-1 - (1/3)t/(t^2 - t + 1) over 6(t^2 - t + 1)
    pair = LaurentPoly(-1, (3, -3, 1)), LaurentPoly(0, (6, -6, 6))
    assert (cls._num, cls._den) == pair
    assert cls == QModLambda._pair(*pair) == QModLambda._pair(pair[0] + pair[1] * T, pair[1])
    assert fields(canonical_class(x)) == fields(cls)
    assert cls.representative() == x


def _count_canonicalisations(monkeypatch):
    calls = []
    canonical = qmod._canonical
    monkeypatch.setattr(qmod, "_canonical",
                        lambda num, den: calls.append((num, den)) or canonical(num, den))
    return calls


def test_pair_operations_never_canonicalise(monkeypatch):
    a, b = QModLambda._pair(T, T - 1), QModLambda._pair(1 - T, T * T - 1)
    calls = _count_canonicalisations(monkeypatch)
    assert a != b and a == a * T and not (a + a.conjugate())
    assert (a - b) * (2 - T) == -(b - a) * (2 - T)
    assert calls == []
    assert str(a) == "(1)/(t - 1)" and repr(a) == "QModLambda('(1)/(t - 1)')"
    assert hash(b) == hash(b)
    assert len(calls) == 2  # once per instance, then cached


BUILTINS = ("unknot", "trefoil", "figure-eight", "cinquefoil", "trefoil-fibred",
            "trefoil-dual")


@pytest.mark.parametrize("name", BUILTINS)
def test_verify_never_canonicalises(monkeypatch, name):
    from blanchfield.catalog import builtin
    from blanchfield.verify import verify_entry
    calls = _count_canonicalisations(monkeypatch)
    assert all(r.passed for r in verify_entry(builtin(name)))
    assert calls == []


def test_cli_canonicalises_each_printed_value_once(monkeypatch, capsys):
    from blanchfield.cli import main
    calls = _count_canonicalisations(monkeypatch)
    assert main(["pairing", "trefoil"]) == 0
    assert capsys.readouterr().out.count("/(t^2 - t + 1)") == 4
    assert len(calls) == 4  # n^2 values of the 2 x 2 generator matrix
