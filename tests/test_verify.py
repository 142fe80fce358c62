import itertools
import random

import pytest

from blanchfield.catalog import _entry, builtin, load_entry, random_seifert, render_entry
from blanchfield.laurent import LaurentPoly, T
from blanchfield.matrix import LAURENT, ZZ, Matrix
from blanchfield.mkform import mk_matrix
from blanchfield.pairing import (DualSurfaceData, SeifertData, as_laurent_vector,
                                 basis_vector, from_dual_surface, from_fibred, from_seifert,
                                 kearton_value, stabilize)
from blanchfield.verify import (_adjoint, _agree_on_generators, _transported, check_consistency,
                                check_fibred_specialization, check_hermitian,
                                check_kearton, check_mk, check_nonsingular,
                                check_sesquilinear, check_well_defined,
                                kearton_witness, random_laurent,
                                seifert_entry, verify_entry, verify_random)

TREFOIL = SeifertData(Matrix.from_int_rows(ZZ, [[-1, 1], [0, -1]]))


def test_all_builtins_pass_their_suites():
    for entry_name in ("unknot", "trefoil", "figure-eight", "cinquefoil",
                       "trefoil-fibred", "trefoil-dual"):
        results = verify_entry(builtin(entry_name), trials=8, seed=3)
        assert results, entry_name
        assert all(r.passed for r in results), (entry_name, results)


@pytest.mark.parametrize("entry", [builtin("unknot"), _entry("empty", "fibred", P=[], J=[])],
                         ids=lambda e: e.kind)
def test_genus_zero_trial_checks_say_vacuous(entry):
    # a module of rank 0 has no vectors to draw: the trial checks must not
    # claim trials they never ran
    results = {r.name: r for r in verify_entry(entry, trials=25, seed=0)}
    cross = "consistency" if entry.kind == "seifert" else "fibred-specialization"
    for name in ("well-definedness", "sesquilinearity", "hermitian", "nonsingularity", cross):
        assert results[name].line() == f"{name}: PASS (vacuous for genus 0)"


def test_kearton_witness_found_for_trefoil():
    witness = kearton_witness(TREFOIL)
    assert witness is not None
    x, j = witness
    assert sorted(x) == [0, 1]
    result = check_kearton(TREFOIL, seifert_entry(TREFOIL))
    assert result.passed and result.detail.startswith("WITNESS FOUND")


def test_kearton_witness_absent_for_trivial_module():
    # a stabilized unknot has unit Alexander polynomial, so the classical
    # formula happens to be well-defined there and no witness exists
    data = SeifertData(Matrix.from_int_rows(ZZ, [[0, 1], [0, 0]]))
    assert kearton_witness(data) is None
    result = check_kearton(data, seifert_entry(data))
    assert result.passed and "no witness" in result.detail


def test_kearton_check_fails_without_witness_on_nontrivial_module(monkeypatch):
    # negative control: a search that misses the trefoil's witnesses must
    # make the check fail rather than pass vacuously
    import blanchfield.verify as verify
    monkeypatch.setattr(verify, "kearton_witness", lambda data: None)
    result = check_kearton(TREFOIL, seifert_entry(TREFOIL))
    assert not result.passed
    assert result.line().startswith("kearton-ill-defined: FAIL")
    assert result.counterexample is not None


def test_counterexamples_are_replayable():
    # force a failure by checking hermitian-ness against a deliberately
    # broken pairing: swap the pairing matrix for a non-hermitian one
    from blanchfield.pairing import from_seifert
    pairing = from_seifert(TREFOIL)
    broken = object.__new__(type(pairing))
    broken.__dict__.update(pairing.__dict__)
    broken._numer = pairing._numer.map_entries(lambda e: e * e)
    entry = seifert_entry(TREFOIL)
    result = check_hermitian(broken, entry)
    assert not result.passed
    assert result.counterexample is not None
    replay = result.counterexample.splitlines()
    entry_text = "\n".join(line for line in replay if not line.startswith(("v:", "w:")))
    assert load_entry(entry_text).data().matrix == TREFOIL.matrix



def _broken_trefoil(swap):
    # the trefoil pairing with the attributes swap(pairing) put in place
    pairing = from_seifert(TREFOIL)
    broken = object.__new__(type(pairing))
    broken.__dict__.update(pairing.__dict__)
    broken.__dict__.update(swap(pairing))
    return broken


@pytest.mark.parametrize("check, swap", [
    (lambda p, entry: check_well_defined(p, entry, _adjoint(p)),
     lambda p: {"_numer": p._numer.map_entries(lambda e: e * e)}),
    # v^T N w: the conjugation of w is dropped
    (lambda p, entry: check_sesquilinear(p, entry, random.Random(0), trials=20),
     lambda p: {"value": lambda v, w: p.value(
         v, [e.conjugate() for e in as_laurent_vector(w)])}),
    (check_hermitian,
     lambda p: {"_numer": p._numer.map_entries(lambda e: e * e)}),
    (lambda p, entry: check_nonsingular(p, entry, _adjoint(p)),
     lambda p: {"_numer": p._numer.map_entries(lambda e: 0 * e)}),
], ids=["well-defined", "sesquilinear", "hermitian", "nonsingular"])
def test_checks_fail_on_broken_pairings(check, swap):
    # negative controls: each check must be able to fail
    entry = seifert_entry(TREFOIL)
    result = check(_broken_trefoil(swap), entry)
    assert not result.passed
    assert result.line().startswith(f"{result.name}: FAIL")
    assert result.counterexample.startswith(render_entry(entry))


def test_singular_form_fails_nonsingularity_only():
    # negative control: the figure-eight numerator times z0 = t + 2 + t^-1
    # stays well-defined and hermitian (z0 is Laurent and symmetric) and its
    # adjoint has no kernel, as H = Lambda/(Delta) is a domain; but it is not
    # onto, since z0 and Delta = -t + 3 - t^-1 share the root -1 mod 5; the
    # adjoint is z = (t - 1) z0 times an isomorphism, t-powers dropped
    entry = builtin("figure-eight")
    pairing = from_seifert(entry.data())
    broken = object.__new__(type(pairing))
    broken.__dict__.update(pairing.__dict__)
    broken._numer = pairing._numer.map_entries(lambda e: e * LaurentPoly(-1, (1, 2, 1)))
    adjoint = _adjoint(broken)
    assert check_well_defined(broken, entry, adjoint).passed
    assert check_hermitian(broken, entry).passed
    result = check_nonsingular(broken, entry, adjoint)
    assert result.line() == ("nonsingularity: FAIL (Z and Y are z times invertible matrices, "
                             "z = t^3 + t^2 - t - 1, z and det P share a factor mod 5)")
    assert result.counterexample.startswith(render_entry(entry))


def _certified_corpus():
    randoms = [seifert_entry(random_seifert(genus, bound, seed), f"random-{genus}-{bound}-{seed}")
               for genus in (1, 2, 3) for bound in (1, 3) for seed in range(4)]
    return randoms + [builtin(name) for name in
                      ("trefoil", "figure-eight", "cinquefoil", "trefoil-fibred")]


@pytest.mark.parametrize("entry", _certified_corpus(), ids=lambda e: e.name)
def test_exact_checks_pass_with_a_certificate(entry):
    # every exact check decides its property from a certificate it names
    data = entry.data()
    pairing = from_fibred(data) if entry.kind == "fibred" else from_seifert(data)
    n = pairing.size
    adjoint = _adjoint(pairing)
    results = [check_well_defined(pairing, entry, adjoint), check_hermitian(pairing, entry),
               check_nonsingular(pairing, entry, adjoint)]
    assert all(r.passed for r in results), results
    well_defined, hermitian, nonsingular = (r.detail for r in results)
    assert well_defined == hermitian == f"{n * n} generator pairs"
    # Seifert: Z = (1 - t) I, and (t - 1, Delta) = Lambda as Res(t - 1, Delta) =
    # +-Delta(1); fibred: Y = J is unimodular, so z = 1
    z = "1" if entry.kind == "fibred" else "t - 1"
    assert nonsingular == ("Z and Y are z times invertible matrices, "
                           f"z = {z}, |resultant(z, det P)| = 1")


def test_nonsingular_without_certificate_fails_and_names_it(monkeypatch):
    # where the resultant is left unfactored the check has no proof either
    # way: it fails, and its detail names the certificate it lacks
    import blanchfield.verify as verify
    monkeypatch.setattr(verify, "_generate_lambda",
                        lambda z, delta: (None, "resultant 7 not factored"))
    entry = seifert_entry(TREFOIL)
    pairing = from_seifert(TREFOIL)
    result = check_nonsingular(pairing, entry, _adjoint(pairing))
    assert result.line() == ("nonsingularity: FAIL (Z and Y are z times invertible matrices, "
                             "z = t - 1, no certificate: resultant 7 not factored)")
    assert result.counterexample.startswith(render_entry(entry))


def _standard_symplectic(g, scales=None):
    # J_std scaled by scales[k] on the k-th hyperbolic plane
    scales = scales or [1] * g
    rows = [[0] * (2 * g) for _ in range(2 * g)]
    for k, c in enumerate(scales):
        rows[2 * k][2 * k + 1], rows[2 * k + 1][2 * k] = c, -c
    return rows


def _symplectic_monodromy(g, seed):
    # a product of 2g + 1 transvections x -> x + k (a^T J_std x) a, each of
    # which preserves J_std and so every multiple c J_std
    rng, n = random.Random(seed), 2 * g
    j = Matrix.from_int_rows(ZZ, _standard_symplectic(g))
    p = Matrix.identity(ZZ, n)
    for _ in range(n + 1):
        a = Matrix.from_int_rows(ZZ, [[rng.randint(-2, 2)] for _ in range(n)])
        p = p + rng.choice([-1, 1]) * (a * a.transpose() * j) * p
    return [list(row) for row in p.entries]


def _fibred(p, j):
    return _entry("fibred", "fibred", P=p, J=j)


_TREFOIL_MONODROMY = [[1, -1], [1, 0]]
_SINGULAR_FIBRED = [
    *[(f"c={c}-g={g}-seed={seed}", _fibred(_symplectic_monodromy(g, seed),
                                           _standard_symplectic(g, [c] * g)))
      for c in (2, 3) for g in (1, 2) for seed in range(3)],
    ("doubled-trefoil-fibred", _fibred(_TREFOIL_MONODROMY, [[0, 2], [-2, 0]])),
    ("J_std+2J_std", _fibred([[int(r == c) for c in range(4)] for r in range(4)],
                             _standard_symplectic(2, [1, 2]))),
]


@pytest.mark.parametrize("entry", [e for _, e in _SINGULAR_FIBRED],
                         ids=[name for name, _ in _SINGULAR_FIBRED])
def test_singular_fibred_forms_fail_nonsingularity_only(entry):
    # negative controls: J not unimodular makes the fibred form singular,
    # though it stays well-defined, sesquilinear and hermitian
    results = {r.name: r for r in verify_entry(entry, trials=5, seed=1)}
    nonsingular = results.pop("nonsingularity")
    assert all(r.passed for r in results.values()), results
    assert not nonsingular.passed
    assert nonsingular.counterexample.startswith(render_entry(entry))
    c = entry.data().intersection[0, 1]
    if c == 1:  # J_std + 2 J_std: z = 1, but det J = 4 leaves det Y no unit
        assert nonsingular.detail == \
            "no certificate: det(Z/z) or det(Y/z) is not a unit, z = 1"
    else:  # z = c, and det(tP - id) has ends +-1, so it is no unit mod c
        assert nonsingular.detail == \
            f"Z and Y are z times invertible matrices, z = {c}, z and det P share a factor mod {c}"


@pytest.mark.parametrize("c", [1, -1])
@pytest.mark.parametrize("g, seed", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)])
def test_unimodular_fibred_forms_pass(c, g, seed):
    entry = _fibred(_symplectic_monodromy(g, seed), _standard_symplectic(g, [c] * g))
    results = verify_entry(entry, trials=5, seed=1)
    assert all(r.passed for r in results), results
    assert results[3].line() == ("nonsingularity: PASS (Z and Y are z times invertible matrices, "
                                 "z = 1, |resultant(z, det P)| = 1)")


def test_zero_fibred_form_fails_nonsingularity():
    # J = 0: the adjoint is zero, z = 0, and the module is nontrivial
    entry = _fibred(_TREFOIL_MONODROMY, [[0, 0], [0, 0]])
    result = {r.name: r for r in verify_entry(entry, trials=5, seed=1)}["nonsingularity"]
    assert result.line() == \
        "nonsingularity: FAIL (Z and Y are z times invertible matrices, z = 0, det P not a unit)"


@pytest.mark.parametrize("z, delta, onto, certificate", [
    ("1 - t", "t - 1 + t^-1", True, "|resultant(z, det P)| = 1"),
    ("-1", "t - 3 + t^-1", True, "|resultant(z, det P)| = 1"),
    ("t + 2", "t + 4", True, "|resultant(z, det P)| = 2, no common factor mod 2"),
    ("2t + 1", "2t + 3", True, "|resultant(z, det P)| = 4, no common factor mod 2"),
    ("10007t + 1", "10007t + 2", True,
     "|resultant(z, det P)| = 10007, no common factor mod 10007"),
    ("2t", "t^2 + 1", False, "z and det P share a factor mod 2"),
    ("t + 2", "t^2 + 1", False, "z and det P share a factor mod 5"),
    ("t - 1", "t^2 - 1", False, "z and det P share a factor over Q"),
    ("3", "t^2 + t + 1", False, "z and det P share a factor mod 3"),
    ("2", "3", True, "|resultant(z, det P)| = 1"),
    ("2", "4", False, "z and det P share a factor mod 2"),
    ("0", "t - 1 + t^-1", False, "det P not a unit"),
    ("0", "-t^3", True, "det P a unit"),
])
def test_generate_lambda_certificates(z, delta, onto, certificate):
    from blanchfield.verify import _generate_lambda
    assert _generate_lambda(LaurentPoly.parse(z), LaurentPoly.parse(delta)) == \
        (onto, certificate)


def test_generate_lambda_leaves_an_unfactored_resultant_open():
    # Res(p t + 1, p t + 2) = -p for the prime p = 2^31 - 1, past the square
    # of the trial-division bound: no certificate, though 1 = (p t + 2) - (p t + 1)
    from blanchfield.verify import _generate_lambda
    p = 2**31 - 1
    assert _generate_lambda(LaurentPoly(0, (1, p)), LaurentPoly(0, (2, p))) == \
        (None, f"resultant {-p} not factored")


@pytest.mark.parametrize("swap", [
    lambda numer, denom: (numer.map_entries(lambda e: T * e), denom),
    lambda numer, denom: (numer, 2 * denom),
], ids=["value-times-t", "half-value"])
def test_cross_denominator_checks_fail_on_broken_evaluators(monkeypatch, swap):
    # negative controls for the two checks that compare values over different
    # denominators (dual surface against Seifert or fibred): a broken shared
    # dual-surface formula must make both fail
    import blanchfield.verify as verify
    build = verify._dual_surface_form
    monkeypatch.setattr(verify, "_dual_surface_form", lambda *args: swap(*build(*args)))
    fibred = builtin("trefoil-fibred")
    entry = seifert_entry(TREFOIL)
    for result, text in (
            (check_consistency(TREFOIL, entry), render_entry(entry)),
            (check_fibred_specialization(fibred.data(), fibred), render_entry(fibred))):
        assert not result.passed
        assert result.line().startswith(f"{result.name}: FAIL")
        assert result.counterexample.startswith(text)


def _nontrivial_corpus():
    # random Seifert matrices whose Alexander module is nontrivial
    cases = [random_seifert(genus, bound, seed) for genus in (1, 2, 3)
             for bound in (1, 3) for seed in range(4)]
    return [d for d in cases if not d.adjugate[1].is_unit()]


def test_consistency_fails_on_wrong_transports():
    # negative controls: the dual-surface value of (v, w) is the Seifert value
    # of (Av, Aw), not of (v, w), (2Av, 2Aw) or ((A + id)v, (A + id)w).
    # A^T and -A are right as well: A^T v = tAv modulo tA - A^T, and the
    # factors t conj(t) and (-1)(-1) are 1
    corpus = _nontrivial_corpus()
    assert len(corpus) >= 10
    for data in corpus:
        a = data.matrix
        eye = Matrix.identity(ZZ, a.rows)
        entry = seifert_entry(data)
        dual = from_dual_surface(DualSurfaceData(a, a.transpose(), a - a.transpose())).form
        for x in (a, a.transpose(), -a):
            assert _agree_on_generators("consistency", entry, dual,
                                        _transported(from_seifert(data).form, x)).passed
        for x in (eye, a + a, a + eye):
            result = _agree_on_generators("consistency", entry, dual,
                                          _transported(from_seifert(data).form, x))
            assert not result.passed, (data, x)
            assert result.counterexample.startswith(render_entry(entry))


def test_consistency_fails_on_a_seifert_form_scaled_by_t():
    # negative control on the other side of the comparison: N replaced by t N
    # in the data's cached form, which consistency reads
    for data in _nontrivial_corpus():
        numer, denom = data.form
        vars(data)["form"] = (numer.map_entries(lambda e: T * e), denom)
        result = check_consistency(data, seifert_entry(data))
        assert result.line().startswith("consistency: FAIL"), data
        # the failing pair replays as one-entry vectors after the entry
        v, w = result.counterexample.splitlines()[-2:]
        assert v.startswith("v: ") and w.startswith("w: ")


def _perturb_adjugate(data, i, j):
    # one entry of the cached elimination off by one, before any form reads it
    adj, det = data.adjugate
    rows = [list(row) for row in adj.entries]
    rows[i][j] = rows[i][j] + 1
    vars(data)["adjugate"] = (Matrix(LAURENT, rows, cols=adj.cols), det)
    assert "form" not in vars(data)


def test_specializations_fail_on_a_wrong_shared_elimination():
    # negative controls: both forms read the one cached (adj P, det P), so
    # consistency certifies P adj P = det P * I; a wrong entry must fail it
    corpus = _nontrivial_corpus()
    for data in corpus:
        for i, j in itertools.product(range(data.size), repeat=2):
            broken = SeifertData(data.matrix)
            _perturb_adjugate(broken, i, j)
            entry = seifert_entry(broken)
            result = check_consistency(broken, entry)
            assert result.line().startswith("consistency: FAIL"), (data, i, j)
            assert result.counterexample.startswith(render_entry(entry))
    fibred = builtin("trefoil-fibred")
    for i, j in itertools.product(range(2), repeat=2):
        broken = load_entry(render_entry(fibred)).data()
        _perturb_adjugate(broken, i, j)
        result = check_fibred_specialization(broken, fibred)
        assert result.line().startswith("fibred-specialization: FAIL"), (i, j)
        assert result.counterexample.startswith(render_entry(fibred))


def test_verify_random_is_deterministic():
    a = verify_random(2, 3, trials=2, seed=9)
    b = verify_random(2, 3, trials=2, seed=9)
    assert [(r.name, r.passed, r.detail) for r in a] == \
        [(r.name, r.passed, r.detail) for r in b]
    assert all(r.passed for r in a)


def test_well_defined_and_mk_on_random_instance():
    from blanchfield.catalog import random_seifert
    data = random_seifert(3, 3, 17)
    entry = seifert_entry(data)
    pairing = from_seifert(data)
    assert check_well_defined(pairing, entry, _adjoint(pairing)).passed
    assert check_mk(data, entry).passed


@pytest.mark.parametrize("name, arcs", [("trefoil", 2), ("cinquefoil", 3)])
def test_mk_check_fails_on_negated_form(monkeypatch, name, arcs):
    # negative control: -M_K is hermitian and its det is a unit multiple of
    # Delta, but its signatures are those of M_K negated
    import blanchfield.verify as verify
    from blanchfield.mkform import MKForm, mk_matrix
    data = builtin(name).data()

    def negated(data):
        form = mk_matrix(data)
        return MKForm(-form.mk, form.congruence)

    monkeypatch.setattr(verify, "mk_matrix", negated)
    result = check_mk(data, builtin(name))
    assert not result.passed
    assert result.line().startswith("mk-form: FAIL")
    # arc 1 (next to z = 1) has signature 0 for both; arc 2 is the first to differ
    assert result.detail == f"sign(M_K) = 2 but Levine-Tristram = -2 on arc 2 of {arcs}"
    assert result.counterexample.startswith(render_entry(builtin(name)))


def test_mk_check_unknot_has_one_arc():
    result = check_mk(builtin("unknot").data(), builtin("unknot"))
    assert result.passed
    assert result.detail == "hermitian, det matches, signatures agree on all arcs (1)"


def test_zero_trials_or_instances_raise():
    # zero work must not report PASS
    with pytest.raises(ValueError):
        verify_random(2, 0)
    with pytest.raises(ValueError):
        verify_entry(builtin("trefoil"), trials=0)


def _kearton_witness_by_value(data, bound):
    # the search spelled out with one kearton_value call per (x, j)
    n = data.size
    pres = from_seifert(data).presentation
    for x in itertools.product(range(-bound, bound + 1), repeat=n):
        if any(x):
            shifted = pres.mul_vec(as_laurent_vector(x))
            for j in range(n):
                if not kearton_value(data, shifted, basis_vector(n, j)).is_laurent():
                    return x, j
    return None


def test_kearton_witness_matches_per_value_search():
    unknot2 = SeifertData(Matrix.from_int_rows(ZZ, [[0, 1], [0, 0]]))
    cases = [(TREFOIL, 2), (unknot2, 2), (stabilize(unknot2, [1, -1], "upper"), 1)]
    cases += [(random_seifert(1, 3, seed), 2) for seed in range(6)]
    cases += [(random_seifert(2, 1 + seed % 2, seed), 1) for seed in range(4)]
    for data, max_bound in cases:
        witness = kearton_witness(data)
        for bound in range(1, max_bound + 1):
            assert (witness is None) == (_kearton_witness_by_value(data, bound) is None)
        if witness is not None:
            x, j = witness
            shifted = from_seifert(data).presentation.mul_vec(as_laurent_vector(x))
            n = data.size
            assert not kearton_value(data, shifted, basis_vector(n, j)).is_laurent()


def _count_eliminations(monkeypatch):
    # every Matrix.adjugate call, and every determinant over Z[t,t^-1]
    adjugates, dets = [], []
    adjugate, det = Matrix.adjugate, Matrix.det

    def counting_adjugate(self):
        adjugates.append(self)
        return adjugate(self)

    def counting_det(self):
        if self.ring is LAURENT:
            dets.append(self)
        return det(self)

    monkeypatch.setattr(Matrix, "adjugate", counting_adjugate)
    monkeypatch.setattr(Matrix, "det", counting_det)
    return adjugates, dets


@pytest.mark.parametrize("entry", [
    builtin("trefoil"), builtin("cinquefoil"),
    seifert_entry(random_seifert(3, 3, 5), "random-3-5")], ids=lambda e: e.name)
def test_seifert_verify_eliminates_presentation_once(monkeypatch, entry):
    a = entry.data().matrix.to_ring(LAURENT)
    presentation = T * a - a.transpose()
    eye = Matrix.identity(LAURENT, a.rows)
    mk = mk_matrix(entry.data()).mk
    adjugates, dets = _count_eliminations(monkeypatch)
    assert all(r.passed for r in verify_entry(entry, trials=3, seed=1))
    # tA - A^T once: the dual-surface cross-check reads the same elimination
    assert adjugates == [presentation]
    # nonsingularity's Z/z = -id and Y/z = t^-1 id for z = t - 1, then
    # M_K's nonsingularity check
    assert dets == [-eye, T.conjugate() * eye, mk]


def test_fibred_verify_eliminates_presentation_once(monkeypatch):
    entry = builtin("trefoil-fibred")
    p = entry.data().monodromy.to_ring(LAURENT)
    eye = Matrix.identity(LAURENT, p.rows)
    adjugates, _ = _count_eliminations(monkeypatch)
    assert all(r.passed for r in verify_entry(entry, trials=3, seed=1))
    assert adjugates == [T * p - eye]


def test_dual_surface_verify_eliminates_once(monkeypatch):
    # load_entry validates the data that verify_entry then reuses
    text = render_entry(builtin("trefoil-dual"))
    adjugates, dets = _count_eliminations(monkeypatch)
    assert all(r.passed for r in verify_entry(load_entry(text), trials=3, seed=1))
    assert len(adjugates) == 1
    assert dets == []


def test_random_laurent_draws_match_the_validating_constructor():
    # the same rng draws as LaurentPoly(val, coeffs), which checks its input
    for seed in range(20):
        rng, old = random.Random(seed), random.Random(seed)
        for _ in range(50):
            val, width = old.randint(-2, 1), old.randint(1, 2)
            expected = LaurentPoly(val, [old.randint(-3, 3) for _ in range(width)])
            got = random_laurent(rng)
            assert got == expected and repr(got) == repr(expected)
        assert rng.random() == old.random()
