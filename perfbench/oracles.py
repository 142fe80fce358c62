"""Independent correctness oracles, run after the timed region.

sympy (not a dependency of the package) supplies exact determinants and
polynomial arithmetic over Z[t]; numpy supplies an independent
Levine-Tristram signature.  Each oracle returns a list of failure
strings, empty when the output is correct.
"""

from __future__ import annotations

import cmath

import numpy as np
import sympy as sp
from sympy.polys.matrices import DomainMatrix

T = sp.Symbol("t")
ZT = sp.ZZ[T]


def _zt(coeffs) -> object:
    """Element of ZZ[t] from an ascending coefficient sequence."""
    return ZT.ring.from_list(list(reversed([int(c) for c in coeffs])))


def _laurent_zt(p, shift: int) -> object:
    """t^shift * p for a package LaurentPoly p, as an element of ZZ[t]."""
    if not p.coeffs:
        return ZT.zero
    k = p.val + shift
    if k < 0:
        raise ValueError("shift too small to clear negative powers")
    return _zt([0] * k + list(p.coeffs))


def _coeffs(x) -> list[int]:
    """Ascending integer coefficients of an element of ZZ[t]."""
    return [int(c) for c in reversed(x.to_dense())] if x else []


def strip_t(coeffs: list[int]) -> tuple[int, ...]:
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    return tuple(coeffs[i:])


def unit_equal(a: list[int], b: list[int]) -> bool:
    """a = +-t^k b for ascending coefficient lists."""
    a, b = strip_t(a), strip_t(b)
    return a == b or a == tuple(-c for c in b)


def alexander_det(a) -> list[int]:
    """det(tA - A^T) over ZZ[t], ascending coefficients."""
    n = len(a)
    if n == 0:
        return [1]
    rows = [[_zt([-a[j][i], a[i][j]]) for j in range(n)] for i in range(n)]
    return _coeffs(DomainMatrix(rows, (n, n), ZT).det())


def check_alexander(a, delta) -> list[str]:
    """The package's Delta agrees with det(tA - A^T) up to a unit and is
    normalized: symmetric and Delta(1) = 1."""
    out = []
    if not unit_equal(list(delta.coeffs), alexander_det(a)):
        out.append(f"Delta {delta} is not a unit multiple of det(tA - A^T)")
    if delta.val + delta.degree() != 0 or sum(delta.coeffs) != 1:
        out.append(f"Delta {delta} is not normalized")
    return out


def check_pairing_certificate(a, pairing_matrix) -> list[str]:
    """pairing_matrix * (A - tA^T) = (t-1) I, row by row over ZZ[t].

    Row i is scaled by the lcm L of its denominators, so the check is
    sum_k (num_ik * L/den_ik) (a_kj - t a_jk) = (t-1) L delta_ij.
    """
    n = len(a)
    t_minus_1 = _zt([-1, 1])
    for i in range(n):
        nums = [_zt(pairing_matrix[i, k].num) for k in range(n)]
        dens = [_zt(pairing_matrix[i, k].den) for k in range(n)]
        lcm = dens[0]
        for d in dens[1:]:
            lcm = ZT.lcm(lcm, d)
        scaled = [nums[k] * ZT.exquo(lcm, dens[k]) for k in range(n)]
        for j in range(n):
            acc = ZT.zero
            for k in range(n):
                acc += scaled[k] * _zt([a[k][j], -a[j][k]])
            want = t_minus_1 * lcm if i == j else ZT.zero
            if acc != want:
                return [f"certificate fails at row {i + 1}, column {j + 1}"]
    return []


def same_class(rep, entry) -> bool:
    """rep - entry lies in Z[t,t^-1], for two package rational functions."""
    num = _zt(rep.num) * _zt(entry.den) - _zt(entry.num) * _zt(rep.den)
    if not num:
        return True
    den = _zt(rep.den) * _zt(entry.den)
    g = ZT.gcd(num, den)
    reduced_den = strip_t(_coeffs(ZT.exquo(den, g)))
    reduced_num = ZT.exquo(num, g)
    # a rational-coefficient numerator over a unit denominator would need
    # content divisible by the denominator's leading coefficient
    return len(reduced_den) == 1 and all(
        c % reduced_den[0] == 0 for c in _coeffs(reduced_num))


def check_values(values, pairing_matrix) -> list[str]:
    n = len(values)
    for i in range(n):
        for j in range(n):
            if not same_class(values[i][j].representative(), pairing_matrix[i, j]):
                return [f"value(e{i + 1}, e{j + 1}) = {values[i][j]} is not "
                        "the class of the certified pairing matrix entry"]
    return []


def mk_det(mk) -> list[int]:
    """det M_K over ZZ[t] after clearing negative powers row by row."""
    n = mk.rows
    if n == 0:
        return [1]
    rows = []
    for i in range(n):
        shift = max([0] + [-e.val for e in mk.entries[i] if e.coeffs])
        rows.append([_laurent_zt(e, shift) for e in mk.entries[i]])
    return _coeffs(DomainMatrix(rows, (n, n), ZT).det())


def check_mk(mk, delta, det) -> list[str]:
    out = []
    n = mk.rows
    for i in range(n):
        for j in range(n):
            e, f = mk.entries[i][j], mk.entries[j][i]
            # conj(f) has valuation -deg f and the coefficients reversed
            if e.coeffs != f.coeffs[::-1] or (
                    e.coeffs and e.val != -(f.val + len(f.coeffs) - 1)):
                return [f"M_K is not hermitian at ({i + 1},{j + 1})"]
    if not unit_equal(mk_det(mk), list(delta.coeffs)):
        out.append("det M_K (sympy) is not a unit multiple of Delta")
    if not unit_equal(list(det.coeffs), list(delta.coeffs)):
        out.append("MKForm.determinant is not a unit multiple of Delta")
    return out


def lt_signature(a, theta: float) -> int | None:
    """Levine-Tristram signature with numpy alone; None near a root."""
    if not a:
        return 0
    z = cmath.exp(1j * theta)
    m = np.array(a, dtype=complex)
    eigs = np.linalg.eigvalsh((1 - z) * m + (1 - z.conjugate()) * m.T)
    scale = float(np.max(np.abs(eigs)))
    if np.any(np.abs(eigs) < 1e-7 * scale):
        return None
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


def check_signatures(a, profile, mk_sigs) -> list[str]:
    """Every determinate sample: package LT = numpy LT = sign(M_K(z))."""
    for theta, sig in profile:
        ref = lt_signature(a, theta)
        if sig is not None and ref is not None and sig != ref:
            return [f"LT signature {sig} != numpy {ref} at theta={theta:.6f}"]
        mk = mk_sigs.get(theta)
        if sig is not None and mk is not None and sig != mk:
            return [f"sign(M_K) {mk} != LT {sig} at theta={theta:.6f}"]
    return []
