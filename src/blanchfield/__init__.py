"""Exact Blanchfield pairings of knots and fibred 3-manifolds.

The package computes, in exact arithmetic over Z[t,t^-1] and Q(t):

  * the Blanchfield pairing presented by a Seifert matrix, by fibred
    monodromy data, or by general dual-surface inclusion data;
  * the hermitian presentation matrix M_K(t) with its symplectic
    normalization;
  * Alexander polynomials and Levine-Tristram signatures;

together with executable checks of the structural facts: the pairings
are well-defined, sesquilinear, hermitian and nonsingular, the classical
inverted-presentation formula is not well-defined, and sign(M_K(z))
recovers the Levine-Tristram signature.
"""

from .catalog import (CatalogEntry, EntryParseError, builtin, builtin_catalog,
                      load_entry, random_seifert, render_entry)
from .invariants import (IndeterminateSignatureError, alexander_polynomial,
                         levine_tristram_signature, mk_signature,
                         signature_profile)
from .laurent import LaurentPoly
from .matrix import LAURENT, QT, ZZ, Matrix, SingularMatrixError
from .mkform import MKAssemblyError, MKForm, mk_matrix, mk_pairing_value, \
    standard_symplectic, symplectic_normalize
from .pairing import (DualSurfaceData, DualSurfaceEvaluator, FibredData,
                      InvariantViolation, PresentedPairing, SeifertData,
                      as_laurent_vector, basis_vector, from_dual_surface,
                      from_fibred, from_seifert, kearton_value, stabilize)
from .qmod import QModLambda, canonical_class
from .ratfunc import RationalFunction
from .verify import CheckResult, kearton_witness, verify_entry, verify_random

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry", "CheckResult", "DualSurfaceData", "DualSurfaceEvaluator",
    "EntryParseError", "FibredData", "IndeterminateSignatureError",
    "InvariantViolation", "LAURENT", "LaurentPoly", "MKAssemblyError",
    "MKForm", "Matrix", "PresentedPairing", "QModLambda", "QT",
    "RationalFunction", "SeifertData", "SingularMatrixError", "ZZ",
    "alexander_polynomial", "as_laurent_vector", "basis_vector", "builtin",
    "builtin_catalog", "canonical_class", "from_dual_surface", "from_fibred",
    "from_seifert", "kearton_value", "kearton_witness",
    "levine_tristram_signature", "load_entry", "mk_matrix",
    "mk_pairing_value", "mk_signature", "random_seifert", "render_entry",
    "signature_profile", "stabilize", "standard_symplectic",
    "symplectic_normalize", "verify_entry", "verify_random",
]
