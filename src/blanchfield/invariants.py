"""Alexander polynomials and Levine-Tristram signatures.

The Alexander polynomial is computed exactly as det(tA - A^T) and
normalized by a unit so that Delta(t) = Delta(1/t) and Delta(1) = 1.
Signatures are numerical: the hermitian matrix (1-z)A + (1-conj(z))A^T
is diagonalized in double precision, with eigenvalues below a relative
threshold of 1e-9 rejected as indeterminate.  Signatures are locally
constant away from unit-circle roots of the Alexander polynomial, so
the tolerance is safe at this scale; no exactness is claimed for them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .laurent import LaurentPoly
from .mkform import MKForm
from .pairing import SeifertData

ZERO_EIGENVALUE_RTOL = 1e-9
UNIT_CIRCLE_TOL = 1e-9


class IndeterminateSignatureError(ArithmeticError):
    """The hermitian form is numerically singular at the requested point."""


def alexander_polynomial(data: SeifertData) -> LaurentPoly:
    """det(tA - A^T), normalized so Delta(t) = Delta(1/t) and Delta(1) = 1."""
    if data.size == 0:
        return LaurentPoly.one()
    det = data.presentation.det()
    if det.is_zero():
        raise ArithmeticError("det(tA - A^T) vanished; A is not a Seifert matrix")
    if det.coeffs != tuple(reversed(det.coeffs)):
        raise ArithmeticError("det(tA - A^T) is not palindromic; invalid input")
    center = det.val + det.degree()
    if center % 2:
        raise ArithmeticError("cannot center det(tA - A^T) by a unit")
    delta = det * LaurentPoly.t_power(-(center // 2))
    at_one = sum(delta.coeffs)
    if abs(at_one) != 1:
        raise ArithmeticError(f"Delta(1) = {at_one}, expected +-1")
    return delta if at_one == 1 else -delta


def _check_circle_point(z: complex) -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z = {z} is not a finite complex number")
    if abs(abs(z) - 1) > UNIT_CIRCLE_TOL:
        raise ValueError(f"z = {z} does not lie on the unit circle")
    if z == 1:
        raise ValueError("z = 1 is excluded")
    return z


def _hermitian_signature(h: np.ndarray) -> int:
    n = h.shape[0]
    if n == 0:
        return 0
    eigs = np.linalg.eigvalsh(h)
    scale = float(np.max(np.abs(eigs)))
    if scale == 0.0:
        raise IndeterminateSignatureError("form is numerically zero")
    tol = ZERO_EIGENVALUE_RTOL * scale
    if np.any(np.abs(eigs) < tol):
        raise IndeterminateSignatureError(
            f"eigenvalue below threshold {tol:g}; z is too close to an Alexander root")
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


def levine_tristram_signature(data: SeifertData, z: complex) -> int:
    """Signature of (1-z)A + (1-conj(z))A^T at a unit-circle point z != 1."""
    z = _check_circle_point(z)
    n = data.size
    if n == 0:
        return 0
    a = np.array(data.matrix.entries, dtype=complex)
    h = (1 - z) * a + (1 - z.conjugate()) * a.T
    if not np.allclose(h, h.conj().T):
        raise AssertionError("Levine-Tristram form is not hermitian")
    return _hermitian_signature(h)


def mk_signature(form: MKForm, z: complex) -> int:
    """Signature of the numerically evaluated hermitian matrix M_K(z)."""
    z = _check_circle_point(z)
    if form.size == 0:
        return 0
    h = np.array(form.evaluate(z), dtype=complex)
    if not np.allclose(h, h.conj().T):
        raise AssertionError("M_K(z) did not evaluate to a hermitian matrix")
    return _hermitian_signature(h)


def signature_profile(data: SeifertData,
                      samples: int) -> tuple[tuple[float, int | None], ...]:
    """Levine-Tristram signatures at z = exp(i pi j/(samples+1)), j = 1..samples.

    Indeterminate sample points (Alexander roots on the circle) are
    reported with value None rather than aborting the sweep.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    out: list[tuple[float, int | None]] = []
    for j in range(1, samples + 1):
        theta = math.pi * j / (samples + 1)
        z = cmath.exp(1j * theta)
        try:
            out.append((theta, levine_tristram_signature(data, z)))
        except IndeterminateSignatureError:
            out.append((theta, None))
    return tuple(out)
