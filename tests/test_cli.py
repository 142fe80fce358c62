import json
import sys
from pathlib import Path

import pytest

from blanchfield.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors exit with code 2
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alexander_trefoil(capsys):
    code, out, _ = run(capsys, "alexander", "trefoil")
    assert code == 0
    assert out.strip() == "t - 1 + t^-1"


def test_alexander_unknot(capsys):
    code, out, _ = run(capsys, "alexander", "unknot")
    assert code == 0
    assert out.strip() == "1"


def test_alexander_json_figure_eight(capsys):
    code, out, _ = run(capsys, "alexander", "--json", "figure-eight")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "alexander"
    assert doc["result"]["alexander"] == "-t + 3 - t^-1"
    assert set(doc) == {"command", "input", "result", "diagnostics"}


def test_json_is_stable(capsys):
    _, out1, _ = run(capsys, "alexander", "--json", "trefoil")
    _, out2, _ = run(capsys, "alexander", "--json", "trefoil")
    assert out1 == out2


def test_pairing_single_value(capsys):
    code, out, _ = run(capsys, "pairing", "trefoil", "--v", "1,0", "--w", "1,0")
    assert code == 0
    assert out.strip() == "(-t)/(t^2 - t + 1)"


def test_pairing_unknot_empty_matrix(capsys):
    code, out, _ = run(capsys, "pairing", "unknot")
    assert code == 0
    assert out.strip() == "[]"


def test_pairing_full_matrix_fibred(capsys):
    code, out, _ = run(capsys, "pairing", "--json", "trefoil-fibred")
    assert code == 0
    grid = json.loads(out)["result"]["matrix"]
    assert len(grid) == 2 and len(grid[0]) == 2


@pytest.mark.parametrize("exponent", ["1001", "-1001"])
def test_pairing_exponent_past_the_bound_is_input_error(capsys, exponent):
    code, out, err = run(capsys, "pairing", "trefoil", "--v", f"t^{exponent},0", "--w", "1,0")
    assert (code, out) == (2, "")
    assert "MAX_EXPONENT = 1000" in err


def test_pairing_at_the_exponent_bound_canonicalises_in_linear_work(capsys, monkeypatch):
    # the value's denominator is t^2000 Delta: Euclid runs against the five
    # coefficients of Delta only, not against 2000 leading zeros as well
    import time

    from blanchfield import _polyops
    from blanchfield.qmod import QModLambda
    euclid, canon = [], []
    certify, fields = _polyops.certify_coprime, QModLambda._fields

    def counting_certify(a, b):
        euclid.append(len(a))
        return certify(a, b)

    def timed_fields(self):
        t0 = time.perf_counter()
        try:
            return fields(self)
        finally:
            canon.append(time.perf_counter() - t0)

    monkeypatch.setattr(_polyops, "certify_coprime", counting_certify)
    monkeypatch.setattr(QModLambda, "_fields", timed_fields)
    code, out, err = run(capsys, "pairing", "cinquefoil",
                         "--v", "1+t^1000,t^-1000,t^1000,1", "--w", "1+t^-1000,t^1000,1,t^-999")
    assert (code, out, err) == (0, "(-23t^3 + 24t^2 - 14t - 7)/(t^4 - t^3 + t^2 - t + 1)\n", "")
    assert euclid == [5]
    assert sum(canon) < 0.1


def test_pairing_dimension_mismatch_is_input_error(capsys):
    code, _, err = run(capsys, "pairing", "trefoil", "--v", "1", "--w", "1,0")
    assert code == 2
    assert "length" in err


def test_mk_trefoil(capsys):
    code, out, _ = run(capsys, "mk", "--json", "trefoil")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["mk"] == [["-1", "-t"], ["-t^-1", "t - 2 + t^-1"]]
    assert doc["result"]["det"] == "-t + 1 - t^-1"


def test_mk_unknot(capsys):
    code, out, _ = run(capsys, "mk", "--json", "unknot")
    assert code == 0
    assert json.loads(out)["result"]["mk"] == []


def test_mk_rejects_non_seifert(capsys):
    code, _, err = run(capsys, "mk", "trefoil-fibred")
    assert code == 2
    assert "kind" in err


def test_signature_at_pi(capsys):
    code, out, _ = run(capsys, "signature", "trefoil", "--z", "theta:3.14159")
    assert code == 0
    assert out.strip() == "-2"


def test_signature_complex_literal(capsys):
    code, out, _ = run(capsys, "signature", "trefoil", "--z=-1+0i")
    assert code == 0
    assert out.strip() == "-2"


@pytest.mark.parametrize("z", ["0+i", "0-i", "0+1i", "i", "-i", "1i"])
def test_signature_bare_imaginary_unit(capsys, z):
    # a bare sign before i is +-1, and the real part may be left out:
    # z = i and z = -i, both past the root pi/3
    code, out, err = run(capsys, "signature", "trefoil", f"--z={z}")
    assert (code, out, err) == (0, "-2\n", "")


@pytest.mark.parametrize("z, plain, value", [
    ("-1+1e-10i", "-1+0.0000000001i", complex(-1, 1e-10)),
    ("-1-1E-12i", "-1-0.000000000001i", complex(-1, -1e-12)),
    ("1e-10+1i", "0.0000000001+1i", complex(1e-10, 1))])
def test_signature_exponent_in_complex_literal(capsys, z, plain, value):
    # the sign of an exponent is not the split between re and im
    from blanchfield.cli import _parse_circle_point
    assert _parse_circle_point(z) == _parse_circle_point(plain) == value
    code, out, err = run(capsys, "signature", "trefoil", f"--z={z}")
    assert (code, out, err) == run(capsys, "signature", "trefoil", f"--z={plain}")
    assert code == 0 and out == "-2\n"


def test_signature_space_inside_complex_literal_is_input_error(capsys):
    code, out, err = run(capsys, "signature", "trefoil", "--z=-1 +0i")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad complex number '-1 +0i'")


def test_signature_check_mk_with_samples_is_input_error(capsys):
    code, out, err = run(capsys, "signature", "trefoil", "--samples", "3", "--check-mk")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--check-mk" in err and "--samples" in err


def test_signature_check_mk(capsys):
    code, out, _ = run(capsys, "signature", "trefoil", "--z", "theta:3.14159",
                       "--check-mk")
    assert code == 0
    assert out.strip() == "-2 -2 OK"


def test_signature_samples(capsys):
    code, out, _ = run(capsys, "signature", "unknot", "--samples", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.endswith("0") for line in lines)


def test_signature_indeterminate_is_success(capsys):
    # theta = pi/3 hits the Alexander root of the trefoil
    code, out, _ = run(capsys, "signature", "trefoil",
                       "--z", "theta:1.0471975511965976")
    assert code == 0
    assert out.strip() == "?"


def test_signature_off_circle_is_input_error(capsys):
    code, _, err = run(capsys, "signature", "trefoil", "--z", "2+0i")
    assert code == 2
    assert "unit circle" in err


def test_verify_trefoil(capsys):
    code, out, _ = run(capsys, "verify", "trefoil", "--trials", "10", "--seed", "7")
    assert code == 0
    assert "kearton-ill-defined: PASS (WITNESS FOUND" in out
    assert "FAIL" not in out


def test_verify_unknot_vacuous(capsys):
    code, out, _ = run(capsys, "verify", "unknot", "--trials", "3")
    assert code == 0
    assert "FAIL" not in out


def test_verify_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--random", "2", "3",
                         "--trials", "2", "--seed", "1")
    code2, out2, _ = run(capsys, "verify", "--random", "2", "3",
                         "--trials", "2", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2


def test_entry_file_loading(tmp_path, capsys):
    path = tmp_path / "knot.txt"
    path.write_text("name: filed\nkind: seifert\nA: [[-1, 1], [0, -1]]\n")
    code, out, _ = run(capsys, "alexander", str(path))
    assert code == 0
    assert out.strip() == "t - 1 + t^-1"


def test_invalid_entry_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("name: bad\nkind: fibred\nP: [[1,0],[0,1]]\nJ: [[0,1],[1,0]]\n")
    code, _, err = run(capsys, "alexander", str(path))
    assert code == 2
    assert "J skew-symmetric" in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no digit limit here")
def test_overlong_integer_entry_file_exit_2(tmp_path, capsys):
    path = tmp_path / "long.txt"
    digits = sys.get_int_max_str_digits() + 700
    path.write_text("name: long\nkind: seifert\nA: [[" + "1" * digits + "]]\n")
    code, out, err = run(capsys, "alexander", str(path))
    assert code == 2
    assert out == ""
    assert f"line 3, column 6: integer of {digits} digits is too long" in err


@pytest.mark.parametrize("command", ["alexander", "pairing", "mk", "signature", "verify"])
def test_directory_entry_exit_2(tmp_path, capsys, command):
    code, out, err = run(capsys, command, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read entry file {str(tmp_path)!r}: Is a directory\n"


def test_unknown_entry_exit_2(capsys):
    code, _, err = run(capsys, "alexander", "granny")
    assert code == 2
    assert "granny" in err


@pytest.mark.parametrize("argv, message", [
    (("signature", "trefoil", "--samples", "0"), "--samples"),
    (("verify", "--random", "-1", "2"), "--random"),
    (("verify", "--random", "1", "0"), "--random"),
    (("verify", "--random", "1", "2", "--trials", "-1"), "--trials"),
])
def test_out_of_range_counts_are_input_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("z", ["theta:nan", "theta:inf", "nan"])
def test_non_finite_z_is_input_error(capsys, z):
    code, out, err = run(capsys, "signature", "trefoil", "--z", z)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


# stdout of the eager-canonicalising implementation, byte for byte
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_matches_golden(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, out, err) == (0, GOLDEN[command], "")


def test_verify_failure_prints_its_counterexample(capsys, monkeypatch):
    import blanchfield.verify as verify
    replay = "name: counterexample\nkind: seifert\nA: []\nw: t - 1\n"
    results = [verify.CheckResult("hermitian", True, "3 trials"),
               verify.CheckResult("sesquilinearity", False, "fails", replay)]
    monkeypatch.setattr(verify, "verify_entry", lambda entry, trials, seed: results)
    code, out, err = run(capsys, "verify", "unknot")
    assert (code, err) == (1, "")
    assert out == ("hermitian: PASS (3 trials)\nsesquilinearity: FAIL (fails)\n"
                   "counterexample (replayable entry):\n" + replay)
    code, out, _ = run(capsys, "verify", "--json", "unknot")
    assert code == 1
    assert json.loads(out)["diagnostics"] == {"counterexamples": [replay]}
    assert json.loads(out)["result"]["passed"] is False
