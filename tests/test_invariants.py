import cmath
import math
import random

import pytest

from blanchfield.catalog import random_seifert
from blanchfield.invariants import (IndeterminateSignatureError,
                                    alexander_polynomial,
                                    levine_tristram_signature, mk_signature,
                                    signature_profile)
from blanchfield.laurent import LaurentPoly
from blanchfield.matrix import ZZ, Matrix
from blanchfield.mkform import mk_matrix
from blanchfield.pairing import SeifertData, stabilize

TREFOIL = SeifertData(Matrix.from_int_rows(ZZ, [[-1, 1], [0, -1]]))
FIG8 = SeifertData(Matrix.from_int_rows(ZZ, [[1, 1], [0, -1]]))
UNKNOT = SeifertData(Matrix(ZZ, (), cols=0))
CINQUEFOIL = SeifertData(Matrix.from_int_rows(
    ZZ, [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]))


def test_alexander_pins():
    assert alexander_polynomial(UNKNOT) == LaurentPoly.one()
    assert alexander_polynomial(TREFOIL) == LaurentPoly.parse("t - 1 + t^-1")
    assert alexander_polynomial(FIG8) == LaurentPoly.parse("-t + 3 - t^-1")
    assert alexander_polynomial(CINQUEFOIL) == LaurentPoly.parse(
        "t^2 - t + 1 - t^-1 + t^-2")


def test_alexander_and_signature_share_one_elimination(monkeypatch):
    data = SeifertData(CINQUEFOIL.matrix)
    calls = []
    det, adjugate = Matrix.det, Matrix.adjugate

    def counting_det(self):
        calls.append("det")
        return det(self)

    def counting_adjugate(self):
        calls.append("adjugate")
        return adjugate(self)

    monkeypatch.setattr(Matrix, "det", counting_det)
    monkeypatch.setattr(Matrix, "adjugate", counting_adjugate)
    delta = alexander_polynomial(data)
    assert levine_tristram_signature(data, -1) == -4
    assert alexander_polynomial(data) == delta
    # tA - A^T is eliminated once, and every later read takes its cached det
    assert calls == ["adjugate"]


def test_alexander_is_symmetric_with_value_one():
    for seed in range(8):
        data = random_seifert(seed % 3 + 1, 3, seed)
        delta = alexander_polynomial(data)
        assert delta == delta.conjugate()
        assert sum(delta.coeffs) == 1


def test_alexander_invariant_under_stabilization():
    delta = alexander_polynomial(TREFOIL)
    st = stabilize(TREFOIL, (2, -1), "upper")
    assert alexander_polynomial(st) == delta
    st2 = stabilize(st, (0, 1, 1, 3), "lower")
    assert alexander_polynomial(st2) == delta


def test_levine_tristram_pins():
    assert levine_tristram_signature(UNKNOT, -1) == 0
    assert levine_tristram_signature(TREFOIL, -1) == -2
    assert levine_tristram_signature(FIG8, -1) == 0
    assert levine_tristram_signature(CINQUEFOIL, -1) == -4


def test_levine_tristram_validates_input():
    with pytest.raises(ValueError):
        levine_tristram_signature(TREFOIL, 1)
    with pytest.raises(ValueError):
        levine_tristram_signature(TREFOIL, 2.0)


def test_indeterminate_at_alexander_root():
    z = cmath.exp(1j * math.pi / 3)  # root of t^2 - t + 1
    with pytest.raises(IndeterminateSignatureError):
        levine_tristram_signature(TREFOIL, z)


def test_mk_signature_pins():
    form = mk_matrix(TREFOIL)
    # M_K(-1) = [[-1, 1], [1, -4]]: det 3 > 0, trace < 0
    assert mk_signature(form, -1) == -2
    assert mk_signature(mk_matrix(UNKNOT), -1) == 0


def test_signature_profile_trefoil():
    profile = signature_profile(TREFOIL, 3)
    values = [s for _, s in profile]
    # the only jump is at the Alexander root theta = pi/3
    assert values == [0, -2, -2]


def test_signature_profile_unknot():
    assert all(s == 0 for _, s in signature_profile(UNKNOT, 5))


def test_signature_profile_conjugation_symmetric():
    for theta in (0.4, 1.1, 2.0):
        z = cmath.exp(1j * theta)
        assert (levine_tristram_signature(TREFOIL, z)
                == levine_tristram_signature(TREFOIL, z.conjugate()))


def test_signatures_are_even():
    rng = random.Random(23)
    for seed in range(6):
        data = random_seifert(rng.randint(1, 3), 3, seed)
        for _ in range(4):
            z = cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
            try:
                sig = levine_tristram_signature(data, z)
            except IndeterminateSignatureError:
                continue
            assert sig % 2 == 0


def test_mk_signature_matches_levine_tristram():
    rng = random.Random(29)
    for seed in range(6):
        data = random_seifert(rng.randint(1, 3), 3, seed)
        form = mk_matrix(data)
        done = 0
        while done < 4:
            z = cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05))
            try:
                lt = levine_tristram_signature(data, z)
                mk = mk_signature(form, z)
            except IndeterminateSignatureError:
                continue
            assert lt == mk
            done += 1
